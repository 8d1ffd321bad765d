package mogul

// EMR engine persistence: the MOGULEMR container (docs/FORMAT.md).
//
// A saved EMR engine carries everything BuildEMR computed — anchors,
// base-column normalization, the flat H columns, the stored points,
// the tombstone set, and the inverse of the gram system — so a loaded
// engine answers bit-identically to the one that saved it without
// re-running k-means or re-inverting. The container frame and the
// Save/SaveAligned dispatch are shared with the spectral engine
// (container.go, engine.go); this file holds only the section codecs.
// Every save writes version 3; versions 1 and 2, which stored the LU
// factors of the gram system instead of its inverse, still load (the
// factors are inverted once, at load). mogul.Load sniffs the magic and
// dispatches here; malformed input of any kind yields an error, never
// a panic.

import (
	"fmt"
	"io"
	"math"

	"mogul/internal/binio"
	"mogul/internal/dense"
	"mogul/internal/vec"
)

// emrMagic identifies an EMR (anchor-graph) engine file.
const emrMagic = "MOGULEMR"

// EMR container section tags.
var (
	tagEmet = [4]byte{'E', 'M', 'E', 'T'} // scalars: alpha, recipe, shapes, timings
	tagEanc = [4]byte{'E', 'A', 'N', 'C'} // anchors + base column sums
	tagEpts = [4]byte{'E', 'P', 'T', 'S'} // stored feature vectors
	tagEhco = [4]byte{'E', 'H', 'C', 'O'} // flat H columns + tombstones
	tagEgrm = [4]byte{'E', 'G', 'R', 'M'} // gram system: its inverse (v3) or LU factors (v1, v2)
)

// emrFormatVersionInverse is the version-2 layout with the explicit
// gram inverse in EGRM where versions 1 and 2 stored LU factors, a
// pivot vector and a swap parity.
const emrFormatVersionInverse = 3

var emrFrame = binio.Frame{
	Magic:        emrMagic,
	Kind:         "EMR engine",
	MinVersion:   engineFormatVersion,
	MaxVersion:   emrFormatVersionInverse,
	PlainVersion: emrFormatVersionInverse,
	Tags:         [][4]byte{tagEmet, tagEanc, tagEpts, tagEhco, tagEgrm},
}

// sections encodes the engine (always version 3): anchor ids are int32
// and, when the engine is mixed-precision, the attachment weights are
// float32; anchors, column sums, and the gram inverse stay float64.
func (e *EMRIndex) sections(st *emrState, version uint32, align int) []binio.Section {
	return alignAll([]binio.Section{
		{Tag: tagEmet, Payload: func(sw *binio.Writer) error {
			e.writeMetaHead(sw)
			// The recorded anchor recipe (pre-clamping), so Compact on a
			// loaded engine rebuilds with the options the original build got.
			sw.Int(e.eopts.NumAnchors)
			sw.Int(e.eopts.NumNearestAnchors)
			sw.Int(st.dim)
			sw.Int(st.p)
			sw.Int(st.s)
			st.writeMetaTail(sw, version, align)
			return sw.Err()
		}},
		{Tag: tagEanc, Payload: func(sw *binio.Writer) error {
			for _, c := range st.anchors {
				sw.Floats(c)
			}
			sw.Floats(st.colSum)
			return sw.Err()
		}},
		{Tag: tagEpts, Payload: func(sw *binio.Writer) error {
			return st.points.Encode(sw, st.f32(), version < engineFormatVersionPrec)
		}},
		{Tag: tagEhco, Payload: func(sw *binio.Writer) error {
			sw.Int32s(st.hAnchor)
			if err := st.hVal.Encode(sw, st.f32(), false); err != nil {
				return err
			}
			st.writeTombstones(sw)
			return sw.Err()
		}},
		{Tag: tagEgrm, Payload: func(sw *binio.Writer) error {
			sw.Int(st.p)
			sw.Floats(st.gramInv.Data)
			return sw.Err()
		}},
	}, align)
}

// LoadEMR reads an engine written by EMRIndex.Save. Malformed input of
// any kind — wrong magic, unknown version, truncation, checksum
// mismatch, shape mismatches between sections, a corrupt gram system —
// yields an error, never a panic. Callers normally go through Load,
// which sniffs the magic and dispatches here.
func LoadEMR(r io.Reader) (*EMRIndex, error) { return loadEMR(binio.NewReader(r)) }

// LoadEMRBytes parses a complete EMR engine image held in memory —
// typically an mmap'd file (LoadFileMapped) — using zero-copy views
// for the large arrays wherever the layout allows. The returned engine
// aliases data, which must stay valid (mapped) for the engine's
// lifetime. The trailing CRC is NOT verified (hashing the image would
// fault in every page); all structural and index-range validation
// still runs, so corrupt input errors rather than panicking later.
func LoadEMRBytes(data []byte) (*EMRIndex, error) { return loadEMR(binio.NewBytesReader(data)) }

func loadEMR(br *binio.Reader) (*EMRIndex, error) {
	version, secs, err := binio.ReadSections(br, &emrFrame)
	if err != nil {
		return nil, err
	}
	return assembleEMR(version, secs)
}

// assembleEMR decodes the section payloads and cross-validates every
// shape and value invariant the engine relies on. The flat arrays come
// out as views into the payload bytes where the reader allows (zero-copy
// when the image is aligned and the host is little-endian, copied
// otherwise), and from version 2 on without the per-element finiteness
// scan version 1 runs over the attachment weights — see vec.ReadRows for
// why; the base rows' weights are nevertheless read once by deriveCells,
// which refuses a negative or non-finite one. The gram system is always
// scanned: it is p-sized, and a NaN in it would reach every score.
func assembleEMR(version uint32, secs map[[4]byte]binio.Payload) (*EMRIndex, error) {
	var m engineMeta
	mr := secs[tagEmet].Reader(0)
	m.readHead(mr)
	recipeAnchors := mr.Int()
	recipeNearest := mr.Int()
	m.hdr.dim = mr.Int()
	p := mr.Int()
	s := mr.Int()
	if err := m.readTail(mr, version, "EMR"); err != nil {
		return nil, err
	}
	switch {
	case p < 1 || p > binio.MaxCount:
		return nil, fmt.Errorf("mogul: corrupt EMR metadata: %d anchors", p)
	case s < 1 || s > p:
		return nil, fmt.Errorf("mogul: corrupt EMR metadata: %d nearest anchors for %d anchors", s, p)
	case recipeAnchors < 1 || recipeNearest < 1:
		return nil, fmt.Errorf("mogul: corrupt EMR metadata: anchor recipe %d/%d", recipeAnchors, recipeNearest)
	case m.hdr.baseN > math.MaxInt32:
		return nil, fmt.Errorf("mogul: corrupt EMR metadata: base size %d (rows are addressed as int32)", m.hdr.baseN)
	}
	n, dim := m.n, m.hdr.dim
	v2 := version >= engineFormatVersionPrec

	ar := secs[tagEanc].Reader(m.align)
	// Grow as anchors arrive rather than trusting p for the allocation.
	anchors := make([]Vector, 0, min(p, 1<<16))
	for a := 0; a < p; a++ {
		v := ar.Floats(binio.MaxCount)
		if err := ar.Err(); err != nil {
			return nil, fmt.Errorf("mogul: decoding anchor %d: %w", a, err)
		}
		if len(v) != dim {
			return nil, fmt.Errorf("mogul: anchor %d has dim %d, want %d", a, len(v), dim)
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("mogul: anchor %d has non-finite component", a)
			}
		}
		anchors = append(anchors, v)
	}
	colSum := ar.Floats(binio.MaxCount)
	if err := ar.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding column sums: %w", err)
	}
	if len(colSum) != p {
		return nil, fmt.Errorf("mogul: %d column sums for %d anchors", len(colSum), p)
	}
	lambda := make([]float64, p)
	for k, cs := range colSum {
		if math.IsNaN(cs) || math.IsInf(cs, 0) || cs < 0 {
			return nil, fmt.Errorf("mogul: corrupt column sum %g at anchor %d", cs, k)
		}
		if cs > 0 {
			lambda[k] = 1 / cs
		}
	}

	points, err := vec.ReadRows(secs[tagEpts].Reader(m.align), n, dim, m.f32, !v2)
	if err != nil {
		return nil, fmt.Errorf("mogul: decoding points: %w", err)
	}
	m.hdr.points = points

	hr := secs[tagEhco].Reader(m.align)
	var hAnchor []int32
	if v2 {
		hAnchor = hr.Int32sView(binio.MaxCount)
	} else {
		// Version 1 stored the anchor ids as int64.
		cols := hr.Ints(binio.MaxCount)
		hAnchor = make([]int32, len(cols))
		for i, a := range cols {
			if a < 0 || a >= p {
				return nil, fmt.Errorf("mogul: H column entry %d names anchor %d outside [0,%d)", i, a, p)
			}
			hAnchor[i] = int32(a)
		}
	}
	hVal, err := vec.ReadRows(hr, n, s, m.f32, false)
	if err != nil {
		return nil, fmt.Errorf("mogul: decoding H columns: %w", err)
	}
	deadIDs := hr.Ints(binio.MaxCount)
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding H columns: %w", err)
	}
	if len(hAnchor) != n*s {
		return nil, fmt.Errorf("mogul: H columns carry %d ids, want %d", len(hAnchor), n*s)
	}
	if v2 {
		for i, a := range hAnchor {
			if a < 0 || int(a) >= p {
				return nil, fmt.Errorf("mogul: H column entry %d names anchor %d outside [0,%d)", i, a, p)
			}
		}
	} else {
		// Version 1 refused a non-finite weight anywhere, delta rows
		// included; deriveCells below checks the base rows of every version.
		for i := 0; i < n; i++ {
			for t, w := range hVal.Row(i, nil) {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return nil, fmt.Errorf("mogul: H column entry %d is non-finite", i*s+t)
				}
			}
		}
	}
	if err := m.readTombstones(deadIDs); err != nil {
		return nil, err
	}

	gr := secs[tagEgrm].Reader(m.align)
	order := gr.Int()
	if err := gr.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding gram system: %w", err)
	}
	if order != p {
		return nil, fmt.Errorf("mogul: gram system of order %d for %d anchors", order, p)
	}
	var gram []float64
	if v2 {
		gram = gr.FloatsView(binio.MaxCount)
	} else {
		gram = gr.Floats(binio.MaxCount)
	}
	if err := gr.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding gram system: %w", err)
	}
	if len(gram) != p*p {
		return nil, fmt.Errorf("mogul: gram system carries %d elements, want %d", len(gram), p*p)
	}
	gramInv := &dense.Matrix{Data: gram, Rows: p, Cols: p}
	if version < emrFormatVersionInverse {
		// Versions 1 and 2 stored the LU factors; invert them once.
		pivot := gr.Ints(binio.MaxCount)
		signDet := gr.Float64()
		if err := gr.Err(); err != nil {
			return nil, fmt.Errorf("mogul: decoding gram factor: %w", err)
		}
		lu, err := dense.NewLUFromComponents(gramInv, pivot, signDet)
		if err != nil {
			return nil, fmt.Errorf("mogul: corrupt gram factor: %w", err)
		}
		gramInv = lu.Inverse()
	}
	for i, v := range gramInv.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mogul: corrupt gram inverse: non-finite element at %d", i)
		}
	}

	m.hdr.stats.NumClusters, m.hdr.stats.FactorNNZ = p, p*p
	st := &emrState{
		engineHeader: m.hdr,
		p:            p,
		s:            s,
		anchors:      anchors,
		colSum:       colSum,
		lambda:       lambda,
		hAnchor:      hAnchor,
		hVal:         hVal,
		gramInv:      gramInv,
	}
	// The cell pass reads every base weight anyway, so it is also where a
	// weight no build can produce is refused: the scan's bound holds only
	// over non-negative finite weights.
	if fp := st.deriveCells(); fp >= 0 {
		return nil, fmt.Errorf("mogul: H column entry %d is negative or non-finite", fp)
	}
	eopts := EMROptions{NumAnchors: recipeAnchors, NumNearestAnchors: recipeNearest}
	return newEMRIndex(m.alpha, int64(m.seed), m.autoCompact, eopts, st), nil
}
