package vec

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mogul/internal/binio"
)

// FuzzRows checks every Rows method against the direct kernel call it
// stands in for, by Float64bits (NaN for NaN), in each of the three
// storages: float64 rows aliased from the caller, float64 rows in one
// flat slice (compared against per-row views of that slice, the form a
// decoded matrix used to take), and float32 rows. seed draws the values
// (mixedSlice: subnormals, 1e±300, NaN, ±Inf, ±0 among ordinary ones),
// width is 1-67, n the row count, and nids the length of a ragged id
// list with repeats. It also round-trips each storage through
// Encode/ReadRows and appends to a decoded view, which must reallocate
// rather than write into the image it came from.
func FuzzRows(f *testing.F) {
	for _, w := range []uint8{0, 3, 7, 8, 66} {
		f.Add(int64(w), w, uint8(9), uint8(w))
	}
	f.Add(int64(-1), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, width, rows, nids uint8) {
		rng := rand.New(rand.NewSource(seed))
		w, n := int(width)%67+1, int(rows)%24
		vecs := make([]Vector, n)
		flat := make([]float64, 0, n*w)
		for i := range vecs {
			vecs[i] = mixedSlice(rng, w)
			flat = append(flat, vecs[i]...)
		}
		flat32 := narrow(flat)
		views := make([]Vector, n) // row headers over flat
		for i := range views {
			views[i] = flat[i*w : (i+1)*w]
		}
		q, x, z := mixedSlice(rng, w), mixedSlice(rng, w), mixedSlice(rng, 67)
		a := mixedSlice(rng, 1)[0]
		ids := make([]int, int(nids)%68)
		idx := make([]int32, w)
		for i := range idx {
			idx[i] = int32(rng.Intn(len(z)))
		}
		aliased := AliasRows(vecs, w)
		storages := []struct {
			name string
			r    Rows
			ref  []Vector // the rows the direct kernels read
		}{
			{"aliased", aliased, vecs},
			{"flat", FlatRows(flat, w), views},
			{"f32", aliased.Narrow(), nil},
		}
		for _, s := range storages {
			r := s.r
			f32 := s.ref == nil
			row32 := func(i int) []float32 { return flat32[i*w : (i+1)*w] }
			same := func(what string, got, want float64) {
				t.Helper()
				if !sameBits(got, want) {
					t.Fatalf("%s w=%d n=%d %s: %v, kernel %v", s.name, w, n, what, got, want)
				}
			}
			sameSlices := func(what string, got, want []float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s w=%d n=%d %s: %d values, kernel %d", s.name, w, n, what, len(got), len(want))
				}
				for i := range got {
					same(what, got[i], want[i])
				}
			}
			// No rows narrow to no rows, of neither precision.
			if r.Len() != n || r.Width() != w || r.F32() != (f32 && n > 0) {
				t.Fatalf("%s: Len/Width/F32 = %d/%d/%v, want %d/%d/%v", s.name, r.Len(), r.Width(), r.F32(), n, w, f32)
			}
			if n == 0 {
				continue
			}
			for i := range ids {
				ids[i] = rng.Intn(n)
			}
			got, want := make([]float64, len(ids)), make([]float64, len(ids))
			r.SqDistIDs(q, ids, got)
			if f32 {
				SquaredEuclideanRows32(q, flat32, ids, want)
			} else {
				SquaredEuclideanRows(q, s.ref, ids, want)
			}
			sameSlices("SqDistIDs", got, want)
			m := rng.Intn(n + 1)
			got, want = make([]float64, m), make([]float64, m)
			r.SqDistPrefix(q, got)
			if f32 {
				SquaredEuclideanBatch32(q, flat32[:m*w], want)
			} else {
				SquaredEuclideanBatch(q, s.ref[:m], want)
			}
			sameSlices("SqDistPrefix", got, want)
			for i := 0; i < n; i++ {
				y, yWant := slices.Clone(z[:w]), slices.Clone(z[:w])
				r.Axpy(y, a, i)
				if f32 {
					sameSlices("Row", r.Row(i, nil), Widen64(nil, row32(i)))
					same("SqDist", r.SqDist(q, i), SquaredEuclideanQ32(q, row32(i)))
					same("Dot", r.Dot(i, x), Dot32(x, row32(i)))
					same("DotGather", r.DotGather(i, idx, z), DotGather(row32(i), idx, z))
					Axpy(yWant, a, row32(i))
				} else {
					sameSlices("Row", r.Row(i, nil), s.ref[i])
					same("SqDist", r.SqDist(q, i), SquaredEuclidean(q, s.ref[i]))
					same("Dot", r.Dot(i, x), Dot(s.ref[i], x))
					same("DotGather", r.DotGather(i, idx, z), DotGather(s.ref[i], idx, z))
					Axpy(yWant, a, s.ref[i])
				}
				sameSlices("Axpy", y, yWant)
			}
			narrowed := r.Narrow()
			for i := 0; i < n; i++ {
				sameSlices("Narrow", narrowed.Row(i, nil), Widen64(nil, row32(i)))
			}

			// Round trip through every layout this storage can be written
			// in, then append to the decoded rows: a view of the image
			// must reallocate, never write past its end.
			for _, perRow := range []bool{false, true} {
				var buf bytes.Buffer
				if err := r.Encode(binio.NewWriter(&buf), !f32, perRow); err == nil {
					t.Fatalf("%s: encode in the other precision accepted", s.name)
				}
				buf.Reset()
				if err := r.Encode(binio.NewWriter(&buf), f32, perRow); err != nil {
					t.Fatal(err)
				}
				img := buf.Bytes()
				orig := bytes.Clone(img)
				back, err := ReadRows(binio.NewBytesReader(img), n, w, f32, perRow)
				if perRow && !f32 && hasNonFinite(flat) {
					if err == nil {
						t.Fatalf("%s: per-row decode accepted a non-finite component", s.name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s perRow=%v: %v", s.name, perRow, err)
				}
				v := mixedSlice(rng, w)
				back.Append(v)
				if !bytes.Equal(img, orig) {
					t.Fatalf("%s perRow=%v: Append wrote into the decoded image", s.name, perRow)
				}
				if back.Len() != n+1 {
					t.Fatalf("%s perRow=%v: %d rows after Append, want %d", s.name, perRow, back.Len(), n+1)
				}
				for i := 0; i < n; i++ {
					sameSlices("decoded Row", back.Row(i, nil), r.Row(i, nil))
				}
				if f32 {
					sameSlices("appended Row", back.Row(n, nil), Widen64(nil, narrow(v)))
				} else {
					sameSlices("appended Row", back.Row(n, nil), v)
				}
			}
		}
	})
}

func hasNonFinite(a []float64) bool {
	for _, x := range a {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// TestRowsAppendAfterView pins the mapped-file case directly: rows over a
// slice with no spare capacity (what a view of a mapped image is) must
// move to a fresh array on Append and leave what lies past the view, and
// the view itself, untouched — in both flat storages.
func TestRowsAppendAfterView(t *testing.T) {
	t.Parallel()
	backing := []float64{1, 2, 3, 4, -1, -1}
	r := FlatRows(backing[:4:4], 2)
	r.Append([]float64{5, 6})
	if backing[4] != -1 || backing[5] != -1 || r.Len() != 3 || r.Row(2, nil)[1] != 6 {
		t.Fatalf("float64 Append wrote past the view: backing %v, rows %d", backing, r.Len())
	}
	backing32 := []float32{1, 2, 3, 4, -1, -1}
	r32 := Rows{width: 2, f32: backing32[:4:4]}
	r32.Append([]float64{5, 6})
	if backing32[4] != -1 || backing32[5] != -1 || r32.Len() != 3 || r32.Row(2, nil)[1] != 6 {
		t.Fatalf("float32 Append wrote past the view: backing %v, rows %d", backing32, r32.Len())
	}
}
