package mogul

// Spectral engine persistence: the MOGULSPC container (docs/FORMAT.md).
//
// A saved spectral engine carries everything BuildSpectral computed —
// the retained eigenvalues, the flat n x rank embedding, the base
// graph the exact query-time hops run on, the stored points, the
// delta attachments, the tombstone set, and the recorded build recipe
// — so a loaded engine answers bit-identically to the one that saved
// it without re-running the graph build or the Lanczos decomposition
// (the spectral-tail coefficients are re-derived from the eigenvalues
// with the same expression the build used, so they match to the
// bit). The container frame, the Save/SaveAligned dispatch, and the
// two format versions are shared with the EMR engine (container.go,
// engine.go); this file holds only the section codecs. mogul.Load
// sniffs the magic and dispatches here; malformed input of any kind
// yields an error, never a panic.

import (
	"fmt"
	"io"
	"math"

	"mogul/internal/binio"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// spectralMagic identifies a spectral (truncated-eigenbasis) engine
// file.
const spectralMagic = "MOGULSPC"

// Spectral container section tags.
var (
	tagSpMet = [4]byte{'S', 'M', 'E', 'T'} // scalars: alpha, recipe, shapes, timings
	tagSpVal = [4]byte{'S', 'V', 'A', 'L'} // retained eigenvalues, descending
	tagSpGph = [4]byte{'S', 'G', 'P', 'H'} // base graph CSR (the exact-hop operator)
	tagSpPts = [4]byte{'S', 'P', 'T', 'S'} // stored feature vectors
	tagSpEmb = [4]byte{'S', 'E', 'M', 'B'} // flat embedding rows + tombstones
	tagSpAtt = [4]byte{'S', 'A', 'T', 'T'} // delta attachments (anchors + weights)
)

var spectralFrame = binio.Frame{
	Magic:        spectralMagic,
	Kind:         "spectral engine",
	MinVersion:   engineFormatVersion,
	MaxVersion:   engineFormatVersionPrec,
	PlainVersion: engineFormatVersion,
	Tags:         [][4]byte{tagSpMet, tagSpVal, tagSpGph, tagSpPts, tagSpEmb, tagSpAtt},
}

// sections encodes the engine. When it is mixed-precision (version 2
// only) the embedding rows and the base graph's edge weights are
// written as float32; eigenvalues and attachment weights stay float64.
func (e *SpectralIndex) sections(st *spectralState, version uint32, align int) []binio.Section {
	return alignAll([]binio.Section{
		{Tag: tagSpMet, Payload: func(sw *binio.Writer) error {
			e.writeMetaHead(sw)
			// The recorded build recipe (pre-clamping), so Compact on a loaded
			// engine rebuilds with the options the original build got: the
			// graph half of Options, then the SpectralOptions.
			sw.Int(e.ropts.GraphK)
			sw.Bool(e.ropts.ApproximateGraph)
			sw.Bool(e.ropts.MutualGraph)
			sw.Float64(e.ropts.Sigma)
			sw.Int(e.sopts.Rank)
			sw.Int(e.sopts.Steps)
			sw.Int(e.sopts.Hops)
			sw.Int(e.sopts.HopBudget)
			sw.Int(e.sopts.AttachK)
			// The realized shapes and the derived attachment bandwidth.
			sw.Int(st.dim)
			sw.Int(st.rank)
			sw.Float64(st.sigma)
			st.writeMetaTail(sw, version, align)
			return sw.Err()
		}},
		{Tag: tagSpVal, Payload: func(sw *binio.Writer) error {
			sw.Floats(st.vals)
			return sw.Err()
		}},
		{Tag: tagSpGph, Payload: func(sw *binio.Writer) error {
			S := st.graph
			sw.Ints(S.RowPtr)
			sw.Ints(S.Col)
			if st.f32() {
				sw.Float32s(S.Val32)
			} else {
				sw.Floats(S.Val)
			}
			return sw.Err()
		}},
		{Tag: tagSpPts, Payload: func(sw *binio.Writer) error {
			return st.points.Encode(sw, st.f32(), version < engineFormatVersionPrec)
		}},
		{Tag: tagSpEmb, Payload: func(sw *binio.Writer) error {
			if err := st.emb.Encode(sw, st.f32(), false); err != nil {
				return err
			}
			st.writeTombstones(sw)
			return sw.Err()
		}},
		{Tag: tagSpAtt, Payload: func(sw *binio.Writer) error {
			sw.Ints(st.attPtr)
			sw.Ints(st.attID)
			sw.Floats(st.attW)
			return sw.Err()
		}},
	}, align)
}

// LoadSpectral reads an engine written by SpectralIndex.Save.
// Malformed input of any kind — wrong magic, unknown version,
// truncation, checksum mismatch, shape mismatches between sections —
// yields an error, never a panic. Callers normally go through Load,
// which sniffs the magic and dispatches here.
func LoadSpectral(r io.Reader) (*SpectralIndex, error) { return loadSpectral(binio.NewReader(r)) }

// LoadSpectralBytes parses a complete spectral engine image held in
// memory — typically an mmap'd file (LoadFileMapped) — using zero-copy
// views for the large arrays wherever the layout allows. The returned
// engine aliases data, which must stay valid (mapped) for the engine's
// lifetime. The trailing CRC is NOT verified (hashing the image would
// fault in every page); all structural and index-range validation
// still runs, so corrupt input errors rather than panicking later.
func LoadSpectralBytes(data []byte) (*SpectralIndex, error) {
	return loadSpectral(binio.NewBytesReader(data))
}

func loadSpectral(br *binio.Reader) (*SpectralIndex, error) {
	version, secs, err := binio.ReadSections(br, &spectralFrame)
	if err != nil {
		return nil, err
	}
	return assembleSpectral(version, secs)
}

// assembleSpectral decodes the section payloads and cross-validates
// every shape and value invariant the engine relies on. Version 2's big
// arrays come out as views into the payload bytes (zero-copy when the
// image is aligned and the host is little-endian, copied otherwise),
// without the per-element finiteness scans version 1 runs over the
// points and the graph's edge weights — see vec.ReadRows for why. The
// embedding is the exception in every version: deriving the row norms
// reads each row once anyway (one sequential pass, which the first
// query used to pay), and a non-finite row is refused there.
func assembleSpectral(version uint32, secs map[[4]byte]binio.Payload) (*SpectralIndex, error) {
	var m engineMeta
	mr := secs[tagSpMet].Reader(0)
	m.readHead(mr)
	graphK := mr.Int()
	approx := mr.Bool()
	mutual := mr.Bool()
	sigmaOpt := mr.Float64()
	sopts := SpectralOptions{Rank: mr.Int(), Steps: mr.Int(), Hops: mr.Int(), HopBudget: mr.Int(), AttachK: mr.Int()}
	m.hdr.dim = mr.Int()
	rank := mr.Int()
	sigma := mr.Float64()
	if err := m.readTail(mr, version, "spectral"); err != nil {
		return nil, err
	}
	n, baseN := m.n, m.hdr.baseN
	switch {
	case graphK < 0:
		return nil, fmt.Errorf("mogul: corrupt spectral metadata: graph k %d", graphK)
	case math.IsNaN(sigmaOpt) || math.IsInf(sigmaOpt, 0) || sigmaOpt < 0:
		return nil, fmt.Errorf("mogul: corrupt spectral metadata: recipe bandwidth %g", sigmaOpt)
	case sopts.Rank < 1 || sopts.Steps < 0 || sopts.Hops < 1 || sopts.HopBudget < 1 || sopts.AttachK < 1:
		return nil, fmt.Errorf("mogul: corrupt spectral metadata: spectral recipe %+v", sopts)
	case baseN < 2:
		return nil, fmt.Errorf("mogul: corrupt spectral metadata: base size %d of %d points", baseN, n)
	case rank < 1 || rank > baseN:
		return nil, fmt.Errorf("mogul: corrupt spectral metadata: rank %d for base size %d", rank, baseN)
	case math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0:
		return nil, fmt.Errorf("mogul: corrupt spectral metadata: attachment bandwidth %g", sigma)
	}
	v2 := version >= engineFormatVersionPrec

	vr := secs[tagSpVal].Reader(m.align)
	vals := vr.Floats(binio.MaxCount)
	if err := vr.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding eigenvalues: %w", err)
	}
	if len(vals) != rank {
		return nil, fmt.Errorf("mogul: %d eigenvalues for rank %d", len(vals), rank)
	}
	for t, v := range vals {
		if math.IsNaN(v) || v < -1 || v > 1 {
			return nil, fmt.Errorf("mogul: eigenvalue %d outside [-1,1]: %g", t, v)
		}
		if t > 0 && v > vals[t-1] {
			return nil, fmt.Errorf("mogul: eigenvalues not descending at %d (%g after %g)", t, v, vals[t-1])
		}
	}

	gr := secs[tagSpGph].Reader(m.align)
	var rowPtr, col []int
	var val []float64
	var val32 []float32
	nnz := 0
	switch {
	case !v2:
		rowPtr = gr.Ints(binio.MaxCount)
		col = gr.Ints(binio.MaxCount)
		val = gr.Floats(binio.MaxCount)
		nnz = len(val)
		for x, v := range val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("mogul: base graph edge %d has non-finite weight", x)
			}
		}
	case m.f32:
		rowPtr = gr.IntsView(binio.MaxCount)
		col = gr.IntsView(binio.MaxCount)
		val32 = gr.Float32sView(binio.MaxCount)
		nnz = len(val32)
	default:
		rowPtr = gr.IntsView(binio.MaxCount)
		col = gr.IntsView(binio.MaxCount)
		val = gr.FloatsView(binio.MaxCount)
		nnz = len(val)
	}
	if err := gr.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding base graph: %w", err)
	}
	if len(rowPtr) != baseN+1 || rowPtr[0] != 0 {
		return nil, fmt.Errorf("mogul: base graph row index carries %d entries for base size %d", len(rowPtr), baseN)
	}
	for i := 1; i < len(rowPtr); i++ {
		if rowPtr[i] < rowPtr[i-1] {
			return nil, fmt.Errorf("mogul: base graph row index decreases at row %d", i)
		}
	}
	if rowPtr[baseN] != len(col) || len(col) != nnz {
		return nil, fmt.Errorf("mogul: base graph shape mismatch (%d row-index end, %d columns, %d values)", rowPtr[baseN], len(col), nnz)
	}
	for x, c := range col {
		if c < 0 || c >= baseN {
			return nil, fmt.Errorf("mogul: base graph edge %d targets %d outside [0,%d)", x, c, baseN)
		}
	}

	points, err := vec.ReadRows(secs[tagSpPts].Reader(m.align), n, m.hdr.dim, m.f32, !v2)
	if err != nil {
		return nil, fmt.Errorf("mogul: decoding points: %w", err)
	}
	m.hdr.points = points

	er := secs[tagSpEmb].Reader(m.align)
	emb, err := vec.ReadRows(er, n, rank, m.f32, false)
	if err != nil {
		return nil, fmt.Errorf("mogul: decoding embedding: %w", err)
	}
	deadIDs := er.Ints(binio.MaxCount)
	if err := er.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding embedding: %w", err)
	}
	if err := m.readTombstones(deadIDs); err != nil {
		return nil, err
	}

	ar := secs[tagSpAtt].Reader(m.align)
	attPtr := ar.Ints(binio.MaxCount)
	attID := ar.Ints(binio.MaxCount)
	attW := ar.Floats(binio.MaxCount)
	if err := ar.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding delta attachments: %w", err)
	}
	if len(attPtr) != (n-baseN)+1 || attPtr[0] != 0 {
		return nil, fmt.Errorf("mogul: attachment index carries %d entries for %d delta items", len(attPtr), n-baseN)
	}
	for i := 1; i < len(attPtr); i++ {
		if attPtr[i] < attPtr[i-1] {
			return nil, fmt.Errorf("mogul: attachment index decreases at delta item %d", i-1)
		}
	}
	if attPtr[len(attPtr)-1] != len(attID) || len(attID) != len(attW) {
		return nil, fmt.Errorf("mogul: attachment shape mismatch (%d index end, %d anchors, %d weights)", attPtr[len(attPtr)-1], len(attID), len(attW))
	}
	for t, id := range attID {
		if id < 0 || id >= baseN {
			return nil, fmt.Errorf("mogul: attachment anchor %d targets %d outside [0,%d)", t, id, baseN)
		}
		if w := attW[t]; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("mogul: attachment anchor %d has invalid weight %g", t, attW[t])
		}
	}

	ropts := Options{
		GraphK:              graphK,
		ApproximateGraph:    approx,
		MutualGraph:         mutual,
		Sigma:               sigmaOpt,
		Alpha:               m.alpha,
		Seed:                int64(m.seed),
		AutoCompactFraction: m.autoCompact,
	}
	m.hdr.stats.NumClusters, m.hdr.stats.FactorNNZ = rank, baseN*rank
	st := &spectralState{
		engineHeader: m.hdr,
		rank:         rank,
		graph:        &sparse.CSR{RowPtr: rowPtr, Col: col, Val: val, Val32: val32, Rows: baseN, Cols: baseN},
		sigma:        sigma,
		vals:         vals,
		emb:          emb,
		attPtr:       attPtr,
		attID:        attID,
		attW:         attW,
	}
	if i := st.derive(); i >= 0 {
		return nil, fmt.Errorf("mogul: embedding row %d is non-finite", i)
	}
	return newSpectralIndex(ropts, sopts, st), nil
}
