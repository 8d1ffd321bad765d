package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"mogul/internal/binio"
	"mogul/internal/cholesky"
	"mogul/internal/cluster"
	"mogul/internal/knn"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// Index persistence (docs/FORMAT.md). Because every part of Mogul's
// precomputation is query independent (Lemma 2 discussion in the
// paper), serializing it turns the O(n) build into a one-off: a search
// service loads the factor and answers queries immediately.
//
// The file is a MOGULIDX container in the shared frame of
// internal/binio: tagged sections holding the leaf records of the
// internal packages (knn.Graph, sparse.Permutation, cluster.Clustering,
// cholesky.Factor) plus index metadata, precompute statistics, and the
// out-of-sample coarse quantizer (per-cluster means with inverted
// member lists), so a loaded index serves in-database AND
// out-of-sample queries without recomputing anything. Unknown sections
// are skipped, allowing forward-compatible additions; corrupt,
// truncated, or wrong-version files fail with an error, never a
// panic.
//
// Version 4 generalizes version 3 in two independent ways, both
// recorded in the META section so readers self-configure:
//
//   - precision: the GRPH and FACT payloads store their bulk arrays
//     (point matrix, adjacency weights, factor values) as float32 when
//     the index was built with Options.F32. The point matrix also
//     becomes ONE flat array instead of per-point records, which is
//     what makes zero-copy loading possible in either precision.
//   - alignment: when a positive alignment is recorded, every large
//     array inside the GRPH and FACT payloads pads to that boundary
//     (the binio aligned layout), so ReadIndexBytes over an mmap'd
//     image hands out zero-copy array views and many server processes
//     share one physical copy of the index.
//
// The remaining sections (LAYT, STAT, OOSQ, BCFG, DELT) keep the
// version-3 record layouts, stay packed even in an aligned file, and
// always decode by copying; they are small next to the point matrix,
// the adjacency, and the factor.

// indexMagic identifies a Mogul index file.
const indexMagic = "MOGULIDX"

// FormatVersion is the on-disk format version a plain float64 save
// writes. Version 1 was an unreleased gob-based layout; version 2 is
// the sectioned binary container; version 3 adds the dynamic-update
// sections (BCFG build config, DELT delta layer). The bump to 3 is
// deliberate even though the container is extensible: a version-2
// reader would skip the delta sections and silently drop inserted
// points and resurrect deleted ones — a semantic change, not a mere
// addition (see docs/FORMAT.md, "Version bump policy").
const FormatVersion = 3

// minReadVersion is the oldest format this build still reads.
// Version-2 files load with an empty delta and no build config (so
// Compact is unavailable until rebuilt).
const minReadVersion = 2

// formatVersionPrec is the container version carrying precision and
// alignment metadata; mixed-precision and aligned saves write it.
const formatVersionPrec = 4

// Section tags. Four ASCII bytes each.
var (
	tagMeta = [4]byte{'M', 'E', 'T', 'A'}
	tagGrph = [4]byte{'G', 'R', 'P', 'H'}
	tagLayt = [4]byte{'L', 'A', 'Y', 'T'}
	tagFact = [4]byte{'F', 'A', 'C', 'T'}
	tagStat = [4]byte{'S', 'T', 'A', 'T'}
	tagOosq = [4]byte{'O', 'O', 'S', 'Q'}
	tagBcfg = [4]byte{'B', 'C', 'F', 'G'}
	tagDelt = [4]byte{'D', 'E', 'L', 'T'}
)

// IndexFrame is the MOGULIDX container's frame: what the engine
// lifecycle needs to pick a save version and write the container around
// Sections.
var IndexFrame = binio.Frame{
	Magic:        indexMagic,
	Kind:         "mogul index",
	MinVersion:   minReadVersion,
	MaxVersion:   formatVersionPrec,
	PlainVersion: FormatVersion,
	Tags:         [][4]byte{tagMeta, tagGrph, tagLayt, tagFact, tagStat, tagOosq, tagBcfg, tagDelt},
}

// Delta is the DELT record: the persisted form of an overlay, plus the
// inserted vectors themselves (which an Overlay does not hold — the
// lifecycle stores them). Delta item i is row i of Points (float64)
// with surrogates Probes[i] / Weights[i]; Dead flags tombstones over the
// whole id space, base then delta.
type Delta struct {
	Points  vec.Rows
	Probes  [][]int
	Weights [][]float64
	Dead    []bool
}

// Sections encodes the complete search structure, and the delta layer
// d when it holds anything, as the sections of a MOGULIDX container of
// the given format version (IndexFrame.SaveVersion picks it: version 3
// for a float64 index, byte-identical to prior releases, version 4 for
// a mixed-precision or aligned one). With a positive align the large
// arrays in the graph and factor sections start on align-byte
// boundaries (use the page size for mmap sharing).
func (ix *Index) Sections(version uint32, align int, d *Delta) []binio.Section {
	f32 := ix.factor.F32()
	v4 := version >= formatVersionPrec

	sections := []binio.Section{
		{Tag: tagMeta, Payload: func(sw *binio.Writer) error {
			sw.Float64(ix.alpha)
			sw.Bool(ix.exact)
			sw.Int(ix.factor.N)
			if v4 {
				sw.Bool(f32)
				sw.Int(align)
			}
			return sw.Err()
		}},
		{Tag: tagGrph, Align: align, Payload: func(sw *binio.Writer) error { return ix.graph.Encode(sw, f32, v4) }},
		{Tag: tagLayt, Payload: ix.writeLayout},
		{Tag: tagFact, Align: align, Payload: func(sw *binio.Writer) error { return ix.factor.Encode(sw, f32) }},
		{Tag: tagStat, Payload: ix.writeStats},
	}
	// The quantizer needs feature vectors; indexes built over a bare
	// adjacency (no points) cannot serve vector queries anyway, so the
	// section is simply omitted for them. It is materialized first so a
	// loaded index answers vector queries without touching ensureOOS.
	if ix.graph.Points.Len() > 0 {
		ix.ensureOOS()
		sections = append(sections, binio.Section{Tag: tagOosq, Payload: ix.writeOOS})
	}
	// Dynamic-update state: how to rebuild the graph (enables Compact
	// after a load), and the delta layer when one exists, so a saved
	// dynamic index round-trips exactly.
	if ix.opts.Graph != nil {
		sections = append(sections, binio.Section{Tag: tagBcfg, Payload: ix.writeBuildConfig})
	}
	if d.Points.Len() > 0 || slices.Contains(d.Dead, true) {
		sections = append(sections, binio.Section{Tag: tagDelt, Payload: func(sw *binio.Writer) error { return ix.writeDelta(sw, d) }})
	}
	return sections
}

// writeLayout stores the permutation plus the cluster partition in
// permuted node order (ClusterOf is non-decreasing because clusters
// occupy consecutive permuted ranges); Start is rebuilt on load from
// the run lengths.
func (ix *Index) writeLayout(bw *binio.Writer) error {
	if err := ix.layout.Perm.Encode(bw); err != nil {
		return err
	}
	cl := &cluster.Clustering{
		Assign:     ix.layout.ClusterOf,
		N:          ix.layout.NumClusters,
		Modularity: ix.stats.Modularity,
	}
	return cl.Encode(bw)
}

// writeStats persists the precompute wall times (as int64
// nanoseconds, not narrowed through int, which is 32 bits on some
// platforms); modularity already travels inside the LAYT partition
// record.
func (ix *Index) writeStats(bw *binio.Writer) error {
	bw.Uint64(uint64(ix.stats.ClusterTime))
	bw.Uint64(uint64(ix.stats.PermuteTime))
	bw.Uint64(uint64(ix.stats.FactorTime))
	return bw.Err()
}

// writeOOS stores the out-of-sample coarse quantizer: one mean feature
// vector per cluster (empty clusters get a zero-length mean) and the
// inverted member lists in original node ids.
func (ix *Index) writeOOS(bw *binio.Writer) error {
	bw.Int(len(ix.oosMeans))
	for c := range ix.oosMeans {
		bw.Floats(ix.oosMeans[c])
		bw.Ints(ix.oosMembers[c])
	}
	return bw.Err()
}

// writeBuildConfig stores how this index was built: the graph
// construction config followed by the core option scalars, enough for
// Compact to reproduce the build bit-for-bit after a load.
func (ix *Index) writeBuildConfig(bw *binio.Writer) error {
	if err := ix.opts.Graph.Encode(bw); err != nil {
		return err
	}
	bw.Int(int(ix.opts.Ordering))
	bw.Int(0) // reserved: the removed clusterer selector, always Louvain
	// Full 64 bits, not narrowed through int (32 bits on some
	// platforms).
	bw.Uint64(uint64(ix.opts.Seed))
	bw.Float64(ix.opts.MinPivot)
	bw.Float64(ix.opts.AutoCompactFraction)
	bw.Int(ix.opts.Cluster.MaxLevels)
	bw.Int(ix.opts.Cluster.MaxSweeps)
	bw.Float64(ix.opts.Cluster.MinGain)
	bw.Float64(ix.opts.Cluster.Resolution)
	return bw.Err()
}

// writeDelta stores the dynamic-update layer: every delta slot
// (vector, surrogate probes, weights, tombstone flag) in insertion
// order, then the sorted base tombstones.
func (ix *Index) writeDelta(bw *binio.Writer, d *Delta) error {
	n := ix.factor.N
	bw.Int(d.Points.Len())
	for i := range d.Points.Len() {
		bw.Floats(d.Points.Row(i, nil))
		bw.Ints(d.Probes[i])
		bw.Floats(d.Weights[i])
		bw.Bool(d.Dead[n+i])
	}
	var deadIDs []int
	for id, dead := range d.Dead[:n] {
		if dead {
			deadIDs = append(deadIDs, id)
		}
	}
	bw.Ints(deadIDs)
	return bw.Err()
}

// Decoded is a decoded MOGULIDX container: the search-ready base and
// the delta layer the file carried (empty when it carried none).
type Decoded struct {
	*Index
	Delta Delta
}

// ReadIndex deserializes a MOGULIDX container (Sections inside
// IndexFrame) and reconstructs every derived structure (cluster map,
// bound tables) so the result is search-ready. It returns an error —
// never panics — on truncated, corrupted, or wrong-version input.
func ReadIndex(r io.Reader) (*Decoded, error) { return read(binio.NewReader(r)) }

// ReadIndexBytes parses a complete index image held in memory —
// typically an mmap'd file (mogul.LoadFileMapped) — using zero-copy
// views for the large arrays wherever the layout allows. The returned
// index aliases data, which must stay valid (mapped) for the index's
// lifetime. The trailing CRC is NOT verified: hashing the image would
// fault in every page and defeat the lazy mapped load; all structural
// and index-range validation still runs, so corrupt input errors
// rather than panicking later.
func ReadIndexBytes(data []byte) (*Decoded, error) { return read(binio.NewBytesReader(data)) }

// read walks the container, decodes the section payloads,
// cross-validates them, and rebuilds the derived structures (Start
// offsets, cluster map, bound tables, statistics). The graph and factor
// arrays come out as views into their payload bytes (which a streamed
// load copied off the reader and an in-memory load aliases).
func read(br *binio.Reader) (*Decoded, error) {
	version, list, err := binio.ReadContainer(br, &IndexFrame)
	if err != nil {
		return nil, err
	}
	secs := make(map[[4]byte]binio.Payload, len(list))
	for _, s := range list {
		secs[s.Tag] = s // later duplicates win
	}
	for _, required := range [][4]byte{tagMeta, tagGrph, tagLayt, tagFact} {
		if _, ok := secs[required]; !ok {
			return nil, fmt.Errorf("core: index file is missing required section %q", required[:])
		}
	}
	v4 := version >= formatVersionPrec

	// META: alpha, exact flag, node count; version 4 adds the precision
	// flag and the alignment the large sections were written with.
	mr := secs[tagMeta].Reader(0)
	alpha := mr.Float64()
	exact := mr.Int()
	n := mr.Int()
	prec, align := 0, 0
	if v4 {
		prec = mr.Int()
		align = mr.Int()
	}
	if err := mr.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding metadata: %w", err)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: corrupt metadata: alpha=%g outside (0,1)", alpha)
	}
	if exact != 0 && exact != 1 {
		return nil, fmt.Errorf("core: corrupt metadata: exact flag %d", exact)
	}
	if n < 1 {
		return nil, fmt.Errorf("core: corrupt metadata: %d nodes", n)
	}
	if prec != 0 && prec != 1 {
		return nil, fmt.Errorf("core: corrupt metadata: precision flag %d", prec)
	}
	if align < 0 || align > binio.MaxCount {
		return nil, fmt.Errorf("core: corrupt metadata: alignment %d", align)
	}
	f32 := prec == 1

	// GRPH: the k-NN graph (validated internally).
	g, err := knn.ReadGraph(secs[tagGrph].Reader(align), f32, v4)
	if err != nil {
		return nil, err
	}
	if g.Len() != n {
		return nil, fmt.Errorf("core: graph covers %d nodes, metadata says %d", g.Len(), n)
	}

	// LAYT: permutation followed by the partition in permuted order.
	lr := secs[tagLayt].Reader(0)
	perm, err := sparse.ReadPermutation(lr)
	if err != nil {
		return nil, fmt.Errorf("core: decoding index permutation: %w", err)
	}
	cl, err := cluster.ReadClustering(lr)
	if err != nil {
		return nil, fmt.Errorf("core: decoding index partition: %w", err)
	}
	layout, err := layoutFromPartition(perm, cl, n)
	if err != nil {
		return nil, err
	}

	// FACT: the LDL^T factor (validated internally).
	factor, err := cholesky.ReadFactor(secs[tagFact].Reader(align), f32)
	if err != nil {
		return nil, err
	}
	if factor.N != n {
		return nil, fmt.Errorf("core: factor covers %d nodes, metadata says %d", factor.N, n)
	}

	ix := &Index{
		graph:  g,
		alpha:  alpha,
		exact:  exact == 1,
		layout: layout,
		factor: factor,
		opts:   Options{Alpha: alpha, Exact: exact == 1, F32: f32},
	}
	ix.bounds = buildBoundTables(factor, layout)
	ix.stats = Stats{
		NumNodes:      n,
		NumEdges:      g.NumEdges(),
		NumClusters:   layout.NumClusters,
		BorderSize:    layout.Size(layout.Border()),
		FactorNNZ:     factor.NNZ(),
		ClampedPivots: factor.Clamped,
		Modularity:    cl.Modularity,
	}

	// STAT (optional): precompute wall times from the original build.
	if s, ok := secs[tagStat]; ok {
		sr := s.Reader(0)
		ix.stats.ClusterTime = time.Duration(int64(sr.Uint64()))
		ix.stats.PermuteTime = time.Duration(int64(sr.Uint64()))
		ix.stats.FactorTime = time.Duration(int64(sr.Uint64()))
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("core: decoding statistics: %w", err)
		}
	}

	// OOSQ (optional): the out-of-sample coarse quantizer. When absent
	// it is rebuilt lazily on the first vector query.
	if s, ok := secs[tagOosq]; ok {
		if err := ix.readOOS(s.Reader(0), n); err != nil {
			return nil, err
		}
	}

	// BCFG (optional, v3): the build configuration that enables
	// Compact after a load. It rebuilds ix.opts wholesale, so the
	// precision flag is restored afterwards — a compaction of an f32
	// index must narrow again.
	if s, ok := secs[tagBcfg]; ok {
		if err := ix.readBuildConfig(s.Reader(0)); err != nil {
			return nil, err
		}
		ix.opts.F32 = f32
	}

	// DELT (optional, v3): the dynamic-update layer.
	out := &Decoded{Index: ix}
	if s, ok := secs[tagDelt]; ok {
		if err := ix.readDelta(s.Reader(0), n, &out.Delta); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readBuildConfig decodes the BCFG section and reconstructs the build
// options so a loaded index compacts exactly like the original.
func (ix *Index) readBuildConfig(br *binio.Reader) error {
	cfg, err := knn.ReadConfig(br)
	if err != nil {
		return err
	}
	ordering := br.Int()
	clusterer := br.Int()
	seed := int64(br.Uint64())
	minPivot := br.Float64()
	autoCompact := br.Float64()
	maxLevels := br.Int()
	maxSweeps := br.Int()
	minGain := br.Float64()
	resolution := br.Float64()
	if err := br.Err(); err != nil {
		return fmt.Errorf("core: decoding build config: %w", err)
	}
	if ordering < int(OrderingMogul) || ordering > int(OrderingRCM) {
		return fmt.Errorf("core: corrupt build config: ordering %d", ordering)
	}
	if clusterer != 0 {
		// The slot once selected an alternate community detector; Compact
		// would silently re-cluster such an index with Louvain, so refuse.
		if clusterer == 1 {
			return fmt.Errorf("core: build config selects the removed label-propagation clusterer (id 1); this build only supports Louvain (0)")
		}
		return fmt.Errorf("core: corrupt build config: clusterer %d", clusterer)
	}
	for name, v := range map[string]float64{
		"min pivot": minPivot, "auto-compact fraction": autoCompact,
		"min gain": minGain, "resolution": resolution,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: corrupt build config: %s %g", name, v)
		}
	}
	if maxLevels < 0 || maxLevels > binio.MaxCount || maxSweeps < 0 || maxSweeps > binio.MaxCount {
		return fmt.Errorf("core: corrupt build config: levels=%d sweeps=%d", maxLevels, maxSweeps)
	}
	ix.opts = Options{
		Alpha:               ix.alpha,
		Exact:               ix.exact,
		Ordering:            Ordering(ordering),
		Seed:                seed,
		MinPivot:            minPivot,
		Cluster:             cluster.Config{MaxLevels: maxLevels, MaxSweeps: maxSweeps, MinGain: minGain, Resolution: resolution},
		Graph:               cfg,
		AutoCompactFraction: autoCompact,
	}
	return nil
}

// readDelta decodes the DELT section, validating every record so a
// corrupt file errors rather than planting an inconsistent delta.
func (ix *Index) readDelta(br *binio.Reader, n int, d *Delta) error {
	num := br.Int()
	if err := br.Err(); err != nil {
		return fmt.Errorf("core: decoding delta layer: %w", err)
	}
	if num < 0 || num > binio.MaxCount {
		return fmt.Errorf("core: corrupt delta layer: %d entries", num)
	}
	dim := ix.graph.Points.Width()
	if num > 0 && dim == 0 {
		return fmt.Errorf("core: delta layer present but the graph carries no feature vectors")
	}
	d.Dead = make([]bool, n, n+min(num, 1<<16))
	var points []vec.Vector
	live := n
	for i := 0; i < num; i++ {
		v := br.Floats(dim)
		probes := br.Ints(n)
		weights := br.Floats(n)
		dead := br.Int()
		if err := br.Err(); err != nil {
			return fmt.Errorf("core: decoding delta entry %d: %w", i, err)
		}
		if len(v) != dim {
			return fmt.Errorf("core: delta entry %d has dim %d, want %d", i, len(v), dim)
		}
		if len(probes) == 0 || len(probes) != len(weights) {
			return fmt.Errorf("core: delta entry %d has %d probes but %d weights", i, len(probes), len(weights))
		}
		if dead != 0 && dead != 1 {
			return fmt.Errorf("core: delta entry %d has tombstone flag %d", i, dead)
		}
		seen := make(map[int]bool, len(probes))
		var wsum float64
		for j, id := range probes {
			if id < 0 || id >= n {
				return fmt.Errorf("core: delta entry %d probe %d outside [0,%d)", i, id, n)
			}
			if seen[id] {
				return fmt.Errorf("core: delta entry %d lists probe %d twice", i, id)
			}
			seen[id] = true
			if w := weights[j]; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return fmt.Errorf("core: delta entry %d has weight %g", i, w)
			}
			wsum += weights[j]
		}
		// Weights are written normalized to unit mass; anything else is
		// corruption that would let this delta item out-score the whole
		// database.
		if math.Abs(wsum-1) > 1e-6 {
			return fmt.Errorf("core: delta entry %d weights sum to %g, want 1", i, wsum)
		}
		points = append(points, v)
		d.Probes = append(d.Probes, probes)
		d.Weights = append(d.Weights, weights)
		d.Dead = append(d.Dead, dead == 1)
		if dead == 0 {
			live++
		}
	}
	deadIDs := br.Ints(n)
	if err := br.Err(); err != nil {
		return fmt.Errorf("core: decoding delta tombstones: %w", err)
	}
	for i, id := range deadIDs {
		if id < 0 || id >= n {
			return fmt.Errorf("core: delta tombstone %d outside [0,%d)", id, n)
		}
		if i > 0 && id <= deadIDs[i-1] {
			return fmt.Errorf("core: delta tombstones not strictly ascending at %d", id)
		}
		d.Dead[id] = true
	}
	if live-len(deadIDs) < 1 {
		return fmt.Errorf("core: delta layer tombstones every item")
	}
	d.Points = vec.AliasRows(points, dim)
	return nil
}

// layoutFromPartition rebuilds the Layout from a permutation and the
// partition in permuted node order. Clusters occupy consecutive
// permuted ranges, so the assignment must be non-decreasing; Start is
// its run-length prefix sum (empty clusters are legal).
func layoutFromPartition(perm *sparse.Permutation, cl *cluster.Clustering, n int) (*Layout, error) {
	if perm.Len() != n {
		return nil, fmt.Errorf("core: permutation covers %d nodes, metadata says %d", perm.Len(), n)
	}
	if len(cl.Assign) != n {
		return nil, fmt.Errorf("core: partition covers %d nodes, metadata says %d", len(cl.Assign), n)
	}
	// At most n clusters can be non-empty plus one (possibly empty)
	// border cluster; a larger count is corruption, and bounding it
	// here keeps the Start allocation proportional to the real index.
	if cl.N < 1 || cl.N > n+1 {
		return nil, fmt.Errorf("core: corrupt layout: %d clusters for %d nodes", cl.N, n)
	}
	start := make([]int, cl.N+1)
	for pos, c := range cl.Assign {
		if pos > 0 && c < cl.Assign[pos-1] {
			return nil, fmt.Errorf("core: corrupt layout: clusters not consecutive at position %d", pos)
		}
		start[c+1]++
	}
	for c := 0; c < cl.N; c++ {
		start[c+1] += start[c]
	}
	return &Layout{
		Perm:        perm,
		Start:       start,
		ClusterOf:   cl.Assign,
		NumClusters: cl.N,
	}, nil
}

// readOOS decodes the out-of-sample quantizer section and validates
// that the member lists form a partition of the node ids.
func (ix *Index) readOOS(br *binio.Reader, n int) error {
	nc := br.Int()
	if err := br.Err(); err != nil {
		return fmt.Errorf("core: decoding out-of-sample quantizer: %w", err)
	}
	if nc != ix.layout.NumClusters {
		return fmt.Errorf("core: out-of-sample quantizer has %d clusters, layout has %d", nc, ix.layout.NumClusters)
	}
	dim := ix.graph.Points.Width()
	means := make([]vec.Vector, nc)
	members := make([][]int, nc)
	seen := make([]bool, n)
	total := 0
	for c := 0; c < nc; c++ {
		m := br.Floats(dim)
		ids := br.Ints(n)
		if err := br.Err(); err != nil {
			return fmt.Errorf("core: decoding out-of-sample quantizer: %w", err)
		}
		if len(m) > 0 {
			if len(m) != dim {
				return fmt.Errorf("core: cluster %d mean has dim %d, want %d", c, len(m), dim)
			}
			means[c] = m
		}
		// A mean exists exactly when the cluster has members; a member
		// list behind a missing mean would be silently unreachable in
		// out-of-sample search, so reject the inconsistency here.
		if means[c] == nil && len(ids) > 0 {
			return fmt.Errorf("core: cluster %d has %d members but no mean", c, len(ids))
		}
		if means[c] != nil && len(ids) == 0 {
			return fmt.Errorf("core: cluster %d has a mean but no members", c)
		}
		for _, id := range ids {
			if id < 0 || id >= n {
				return fmt.Errorf("core: cluster %d member %d outside [0,%d)", c, id, n)
			}
			if seen[id] {
				return fmt.Errorf("core: node %d appears in two out-of-sample member lists", id)
			}
			seen[id] = true
		}
		members[c] = ids
		total += len(ids)
	}
	if total != n {
		return fmt.Errorf("core: out-of-sample member lists cover %d nodes, want %d", total, n)
	}
	ix.oosMeans = means
	ix.oosMembers = members
	return nil
}
