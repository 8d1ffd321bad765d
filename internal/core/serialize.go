package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
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
// The container is a magic header, a format version, a sequence of
// length-prefixed tagged sections, and a trailing CRC-32 over the
// whole stream. Sections hold the leaf records of the internal
// packages (knn.Graph, sparse.Permutation, cluster.Clustering,
// cholesky.Factor) plus index metadata, precompute statistics, and the
// out-of-sample coarse quantizer (per-cluster means with inverted
// member lists), so a loaded index serves in-database AND
// out-of-sample queries without recomputing anything. Unknown sections
// are skipped, allowing forward-compatible additions; corrupt,
// truncated, or wrong-version files fail with an error, never a
// panic.

// indexMagic identifies a Mogul index file.
const indexMagic = "MOGULIDX"

// FormatVersion is the on-disk format version this build writes.
// Version 1 was an unreleased gob-based layout; version 2 is the
// sectioned binary container; version 3 adds the dynamic-update
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
	tagEnd  = [4]byte{'E', 'N', 'D', 0}
)

// section pairs a container tag with the function that streams its
// payload.
type section struct {
	tag     [4]byte
	payload func(w io.Writer) error
}

// WriteTo serializes the complete search structure in the versioned
// binary format. The out-of-sample quantizer is materialized first so
// a loaded index answers vector queries without touching ensureOOS.
// Output is buffered internally, so writing straight to an os.File is
// fine.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.mu.RLock()
	f32 := ix.factor.F32()
	ix.mu.RUnlock()
	if f32 {
		// Mixed-precision indexes need the version-4 layout; the default
		// float64 path below stays byte-identical to prior releases.
		return ix.writePrec(w, 0)
	}
	// The read lock freezes the delta layer and the base pointers for
	// the duration: concurrent searches proceed, mutators wait.
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	buffered := bufio.NewWriterSize(w, 1<<20)
	bw := binio.NewWriter(buffered)
	bw.Raw([]byte(indexMagic))
	bw.Uint32(FormatVersion)

	sections := []section{
		{tagMeta, ix.writeMeta},
		{tagGrph, func(w io.Writer) error { _, err := ix.graph.WriteTo(w); return err }},
		{tagLayt, ix.writeLayout},
		{tagFact, func(w io.Writer) error { _, err := ix.factor.WriteTo(w); return err }},
		{tagStat, ix.writeStats},
	}
	// The quantizer needs feature vectors; indexes built over a bare
	// adjacency (no points) cannot serve vector queries anyway, so the
	// section is simply omitted for them.
	if ix.graph.NumPoints() > 0 {
		ix.ensureOOS()
		sections = append(sections, section{tagOosq, ix.writeOOS})
	}
	// Dynamic-update state: how to rebuild the graph (enables Compact
	// after a load), and the delta layer when one exists, so a saved
	// dynamic index round-trips exactly.
	if ix.graphCfg != nil {
		sections = append(sections, section{tagBcfg, ix.writeBuildConfig})
	}
	if len(ix.delta.points) > 0 || len(ix.delta.deadBase) > 0 {
		sections = append(sections, section{tagDelt, ix.writeDelta})
	}
	for _, s := range sections {
		if err := writeSection(bw, s.tag, s.payload); err != nil {
			return bw.Count(), fmt.Errorf("core: writing %q section: %w", s.tag[:], err)
		}
	}
	bw.Raw(tagEnd[:])
	bw.Uint64(0)
	crc := bw.Sum32()
	bw.Uint32(crc)
	if err := bw.Err(); err != nil {
		return bw.Count(), err
	}
	return bw.Count(), buffered.Flush()
}

// writeSection frames a payload without buffering it: the payload
// writers are deterministic pure functions of index state, so a first
// pass into a counting sink yields the exact byte length and a second
// pass streams the same bytes out. This keeps Save at O(1) extra
// memory — buffering the GRPH section would briefly hold a second
// copy of every feature vector.
func writeSection(bw *binio.Writer, tag [4]byte, payload func(w io.Writer) error) error {
	var count countingWriter
	if err := payload(&count); err != nil {
		return err
	}
	bw.Raw(tag[:])
	bw.Uint64(uint64(count.n))
	before := bw.Count()
	if err := payload(sinkWriter{bw}); err != nil {
		return err
	}
	if got := bw.Count() - before; got != count.n {
		return fmt.Errorf("core: section produced %d bytes, declared %d", got, count.n)
	}
	return bw.Err()
}

// countingWriter measures a payload's encoded size.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// sinkWriter adapts the container's binio.Writer (which tracks count
// and CRC) back to io.Writer for the payload functions.
type sinkWriter struct{ bw *binio.Writer }

func (s sinkWriter) Write(p []byte) (int, error) {
	s.bw.Raw(p)
	if err := s.bw.Err(); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (ix *Index) writeMeta(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Float64(ix.alpha)
	exact := 0
	if ix.exact {
		exact = 1
	}
	bw.Int(exact)
	bw.Int(ix.factor.N)
	return bw.Err()
}

// writeLayout stores the permutation plus the cluster partition in
// permuted node order (ClusterOf is non-decreasing because clusters
// occupy consecutive permuted ranges); Start is rebuilt on load from
// the run lengths.
func (ix *Index) writeLayout(w io.Writer) error {
	if _, err := ix.layout.Perm.WriteTo(w); err != nil {
		return err
	}
	cl := &cluster.Clustering{
		Assign:     ix.layout.ClusterOf,
		N:          ix.layout.NumClusters,
		Modularity: ix.stats.Modularity,
	}
	_, err := cl.WriteTo(w)
	return err
}

// writeStats persists the precompute wall times (as int64
// nanoseconds, not narrowed through int, which is 32 bits on some
// platforms); modularity already travels inside the LAYT partition
// record.
func (ix *Index) writeStats(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Uint64(uint64(ix.stats.ClusterTime))
	bw.Uint64(uint64(ix.stats.PermuteTime))
	bw.Uint64(uint64(ix.stats.FactorTime))
	return bw.Err()
}

// writeOOS stores the out-of-sample coarse quantizer: one mean feature
// vector per cluster (empty clusters get a zero-length mean) and the
// inverted member lists in original node ids.
func (ix *Index) writeOOS(w io.Writer) error {
	bw := binio.NewWriter(w)
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
func (ix *Index) writeBuildConfig(w io.Writer) error {
	if _, err := ix.graphCfg.WriteConfig(w); err != nil {
		return err
	}
	bw := binio.NewWriter(w)
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
func (ix *Index) writeDelta(w io.Writer) error {
	bw := binio.NewWriter(w)
	d := &ix.delta
	bw.Int(len(d.points))
	for i := range d.points {
		bw.Floats(d.points[i])
		bw.Ints(d.probes[i])
		bw.Floats(d.weights[i])
		dead := 0
		if d.dead[i] {
			dead = 1
		}
		bw.Int(dead)
	}
	deadIDs := make([]int, 0, len(d.deadBase))
	for id := range d.deadBase {
		deadIDs = append(deadIDs, id)
	}
	slices.Sort(deadIDs)
	bw.Ints(deadIDs)
	return bw.Err()
}

// ReadIndex deserializes an index written by WriteTo and reconstructs
// every derived structure (cluster map, bound tables) so the result is
// search-ready. It returns an error — never panics — on truncated,
// corrupted, or wrong-version input.
func ReadIndex(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	var magic [len(indexMagic)]byte
	br.Raw(magic[:])
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	if string(magic[:]) != indexMagic {
		return nil, fmt.Errorf("core: not a mogul index file (magic %q)", magic[:])
	}
	version := br.Uint32()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	if version < minReadVersion || version > formatVersionPrec {
		return nil, fmt.Errorf("core: index format version %d, this build reads versions %d-%d", version, minReadVersion, formatVersionPrec)
	}

	payloads := map[[4]byte][]byte{}
	bases := map[[4]byte]int64{}
	for {
		var tag [4]byte
		br.Raw(tag[:])
		n := br.Uint64()
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("core: reading section header: %w", err)
		}
		if tag == tagEnd {
			if n != 0 {
				return nil, fmt.Errorf("core: end marker carries %d payload bytes", n)
			}
			break
		}
		if n > binio.MaxCount {
			return nil, fmt.Errorf("core: section %q claims %d bytes", tag[:], n)
		}
		switch tag {
		case tagMeta, tagGrph, tagLayt, tagFact, tagStat, tagOosq, tagBcfg, tagDelt:
			base := br.Count()
			payload, err := readPayload(br, n)
			if err != nil {
				return nil, fmt.Errorf("core: reading %q section: %w", tag[:], err)
			}
			// Later duplicates win.
			payloads[tag] = payload
			bases[tag] = base
		default:
			// A section from a newer writer: skip it (the skipped
			// bytes still count toward the checksum), which makes
			// additive format evolution non-breaking.
			br.Skip(int64(n))
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("core: skipping %q section: %w", tag[:], err)
			}
		}
	}
	want := br.Sum32()
	got := br.Uint32()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("core: checksum mismatch (file %08x, computed %08x): index file is corrupt", got, want)
	}

	for _, required := range [][4]byte{tagMeta, tagGrph, tagLayt, tagFact} {
		if _, ok := payloads[required]; !ok {
			return nil, fmt.Errorf("core: index file is missing required section %q", required[:])
		}
	}
	return assembleIndex(version, payloads, bases)
}

// readPayload reads exactly n bytes, growing the buffer in bounded
// steps and reading straight into its tail, so a corrupt length fails
// with an I/O error instead of a giant allocation.
func readPayload(br *binio.Reader, n uint64) ([]byte, error) {
	const chunk = uint64(1 << 20)
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		k := int(min(n-uint64(len(buf)), chunk))
		off := len(buf)
		buf = slices.Grow(buf, k)[:off+k]
		br.Raw(buf[off:])
		if err := br.Err(); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// assembleIndex decodes the section payloads, cross-validates them,
// and rebuilds the derived structures (Start offsets, cluster map,
// bound tables, statistics). Each payload is released as soon as it
// is decoded so peak load memory stays near one copy of the large
// sections (the graph dominates).
func assembleIndex(version uint32, payloads map[[4]byte][]byte, bases map[[4]byte]int64) (*Index, error) {
	// META: alpha, exact flag, node count; version 4 adds the precision
	// flag and the alignment the large sections were written with.
	mr := binio.NewReader(bytes.NewReader(payloads[tagMeta]))
	delete(payloads, tagMeta)
	alpha := mr.Float64()
	exact := mr.Int()
	n := mr.Int()
	prec, align := 0, 0
	if version >= formatVersionPrec {
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

	// GRPH: the k-NN graph (validated internally). Version 4 decodes
	// through the precision-aware codec over a bytes reader, so array
	// payloads become zero-copy views when the backing bytes allow.
	var g *knn.Graph
	var err error
	if version >= formatVersionPrec {
		gr := binio.NewBytesReader(payloads[tagGrph])
		gr.EnableAlign(align, bases[tagGrph])
		g, err = knn.ReadGraphPrec(gr, f32)
	} else {
		g, err = knn.ReadGraph(bytes.NewReader(payloads[tagGrph]))
	}
	delete(payloads, tagGrph)
	if err != nil {
		return nil, err
	}
	if g.Len() != n {
		return nil, fmt.Errorf("core: graph covers %d nodes, metadata says %d", g.Len(), n)
	}

	// LAYT: permutation followed by the partition in permuted order.
	lr := bytes.NewReader(payloads[tagLayt])
	delete(payloads, tagLayt)
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
	var factor *cholesky.Factor
	if version >= formatVersionPrec {
		fr := binio.NewBytesReader(payloads[tagFact])
		fr.EnableAlign(align, bases[tagFact])
		factor, err = cholesky.ReadFactorPrec(fr, f32)
	} else {
		factor, err = cholesky.ReadFactor(bytes.NewReader(payloads[tagFact]))
	}
	delete(payloads, tagFact)
	if err != nil {
		return nil, err
	}
	if factor.N != n {
		return nil, fmt.Errorf("core: factor covers %d nodes, metadata says %d", factor.N, n)
	}

	ix := &Index{
		graph:   g,
		alpha:   alpha,
		exact:   exact == 1,
		layout:  layout,
		factor:  factor,
		opts:    Options{Alpha: alpha, Exact: exact == 1, F32: f32},
		oosOnce: new(sync.Once),
		wOnce:   new(sync.Once),
		epoch:   1,
	}
	ix.version.Store(1)
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
	if p, ok := payloads[tagStat]; ok {
		sr := binio.NewReader(bytes.NewReader(p))
		ix.stats.ClusterTime = time.Duration(int64(sr.Uint64()))
		ix.stats.PermuteTime = time.Duration(int64(sr.Uint64()))
		ix.stats.FactorTime = time.Duration(int64(sr.Uint64()))
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("core: decoding statistics: %w", err)
		}
	}

	// OOSQ (optional): the out-of-sample coarse quantizer. When absent
	// it is rebuilt lazily on the first vector query.
	if p, ok := payloads[tagOosq]; ok {
		if err := ix.readOOS(p, n); err != nil {
			return nil, err
		}
	}

	// BCFG (optional, v3): the build configuration that enables
	// Compact after a load. It rebuilds ix.opts wholesale, so the
	// precision flag is restored afterwards — a compaction of an f32
	// index must narrow again.
	if p, ok := payloads[tagBcfg]; ok {
		if err := ix.readBuildConfig(p); err != nil {
			return nil, err
		}
		ix.opts.F32 = f32
	}

	// DELT (optional, v3): the dynamic-update layer.
	if p, ok := payloads[tagDelt]; ok {
		if err := ix.readDelta(p, n); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// readBuildConfig decodes the BCFG section and reconstructs the build
// options so a loaded index compacts exactly like the original.
func (ix *Index) readBuildConfig(payload []byte) error {
	pr := bytes.NewReader(payload)
	cfg, err := knn.ReadConfig(pr)
	if err != nil {
		return err
	}
	br := binio.NewReader(pr)
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
	ix.graphCfg = cfg
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
// corrupt file errors rather than planting an inconsistent delta, and
// rebuilds the derived counters (live count, probe-cluster refcounts).
func (ix *Index) readDelta(payload []byte, n int) error {
	br := binio.NewReader(bytes.NewReader(payload))
	num := br.Int()
	if err := br.Err(); err != nil {
		return fmt.Errorf("core: decoding delta layer: %w", err)
	}
	if num < 0 || num > binio.MaxCount {
		return fmt.Errorf("core: corrupt delta layer: %d entries", num)
	}
	dim := 0
	if ix.graph.NumPoints() > 0 {
		dim = ix.graph.PointDim()
	}
	if num > 0 && dim == 0 {
		return fmt.Errorf("core: delta layer present but the graph carries no feature vectors")
	}
	d := delta{}
	if num > 0 {
		d.clusters = make(map[int]int)
	}
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
		d.points = append(d.points, v)
		d.probes = append(d.probes, probes)
		d.weights = append(d.weights, weights)
		d.dead = append(d.dead, dead == 1)
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
	}
	if len(deadIDs) > 0 {
		d.deadBase = make(map[int]bool, len(deadIDs))
		d.deadBits = make([]uint64, (n+63)/64)
		for _, id := range deadIDs {
			d.deadBase[id] = true
			d.deadBits[id>>6] |= 1 << (uint(id) & 63)
		}
	}
	ix.delta = d
	for i := range d.points {
		if d.dead[i] {
			continue
		}
		ix.delta.live++
		for _, c := range ix.probeClusters(d.probes[i]) {
			ix.delta.clusters[c]++
		}
	}
	if ix.liveTotal() < 1 {
		return fmt.Errorf("core: delta layer tombstones every item")
	}
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
func (ix *Index) readOOS(payload []byte, n int) error {
	br := binio.NewReader(bytes.NewReader(payload))
	nc := br.Int()
	if err := br.Err(); err != nil {
		return fmt.Errorf("core: decoding out-of-sample quantizer: %w", err)
	}
	if nc != ix.layout.NumClusters {
		return fmt.Errorf("core: out-of-sample quantizer has %d clusters, layout has %d", nc, ix.layout.NumClusters)
	}
	dim := 0
	if ix.graph.NumPoints() > 0 {
		dim = ix.graph.PointDim()
	}
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
