package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mogul"
	"mogul/internal/jsonwire"
	"mogul/serve"
)

// toWire is the row conversion the /dist handlers marshalled through
// until appendReply replaced it; the oracle below still does.
func toWire(res []mogul.Result) []serve.Answer {
	out := make([]serve.Answer, len(res))
	for i, r := range res {
		out[i] = serve.Answer{Item: r.Node, Score: r.Score}
	}
	return out
}

// fromWire is the inverse: the oracle's decoded rows as the scanner
// returns them.
func fromWire(rows []serve.Answer) []mogul.Result {
	out := make([]mogul.Result, len(rows))
	for i, r := range rows {
		out[i] = mogul.Result{Node: r.Item, Score: r.Score}
	}
	return out
}

// marshalLine is what serve.WriteJSON sent for v: json.Marshal's bytes
// and Encoder's newline.
func marshalLine(v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// distSeedFloats covers every float regime the writer distinguishes:
// both zeros, subnormals, each side of the 1e-6 and 1e21 format cutoffs,
// tiny and huge, negative, and what JSON cannot carry.
var distSeedFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Nextafter(1e-6, 0), 1e-6, -9.99e-7, 1e-7, 1.234e-100, math.Nextafter(1e21, 0), 1e21, -1e21,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 0.6507287335960286, -2.639486504262051, 1, -1,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// distRows unpacks fuzzer bytes into results, 16 bytes a row: the id,
// then the score's Float64bits.
func distRows(b []byte) []mogul.Result {
	res := make([]mogul.Result, len(b)/16)
	for i := range res {
		res[i] = mogul.Result{
			Node:  int(binary.LittleEndian.Uint64(b[16*i:])),
			Score: math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:])),
		}
	}
	return res
}

// distFloats unpacks fuzzer bytes into float64s, 8 bytes each.
func distFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func packFloats(fs ...float64) []byte {
	var b []byte
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func packRows(ids []int, scores []float64) []byte {
	var b []byte
	for i, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scores[i]))
	}
	return b
}

// sameResults compares two rankings bit for bit.
func sameResults(a, b []mogul.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// sameFloats compares two vectors bit for bit, nil apart from empty.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkWrite holds one writer call to its oracle: appendReply's bytes
// are json.Marshal's plus the newline, or both refuse the value and
// appendReply leaves its buffer as it was; and what it wrote scans back
// to the same values without the encoding/json arm.
func checkWrite(t *testing.T, owner bool, ver uint64, res []mogul.Result, vec []float64, aff float64) {
	t.Helper()
	var want []byte
	var wantErr error
	if owner {
		want, wantErr = marshalLine(ownerResponse{Version: ver, Answers: toWire(res), Vector: vec, Affinity: aff})
	} else {
		want, wantErr = marshalLine(vectorResponse{Version: ver, Answers: toWire(res), Affinity: aff})
		vec = nil
	}
	const prefix = "already here"
	got, err := appendReply([]byte(prefix), owner, ver, res, vec, aff)
	if wantErr != nil {
		if !errors.Is(err, jsonwire.ErrNonFinite) || string(got) != prefix {
			t.Fatalf("owner=%v: encoding/json refuses the reply (%v); appendReply returned %q, %v", owner, wantErr, got, err)
		}
		return
	}
	if err != nil || !bytes.Equal(got, append([]byte(prefix), want...)) {
		t.Fatalf("owner=%v:\n got %q, %v\nwant %s%s", owner, got, err, prefix, want)
	}
	var back searchReply
	if !back.scan(got[len(prefix):], owner) {
		t.Fatalf("owner=%v: the scanner declined the writer's own bytes %s", owner, want)
	}
	if !owner && aff == 0 {
		aff = 0 // omitted, so -0 reads back as 0
	}
	if !sameResults(back.res, res) || !sameFloats(back.vec, vec) || math.Float64bits(back.aff) != math.Float64bits(aff) {
		t.Fatalf("owner=%v: %s scanned back as %+v", owner, want, back)
	}
}

// checkVectorBody holds the /dist/vector request-body writer to
// json.Marshal of serve.VectorQuery.
func checkVectorBody(t *testing.T, vec []float64, k int) {
	t.Helper()
	want, wantErr := json.Marshal(serve.VectorQuery{Vector: vec, K: k})
	got, err := appendVectorQuery(nil, vec, k)
	if (wantErr != nil) != (err != nil) || wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("vector body:\n got %s, %v\nwant %s, %v", got, err, want, wantErr)
	}
}

func FuzzWriteDistReply(f *testing.F) {
	ids := []int{0, 3, -1, math.MaxInt64, math.MinInt64, 1 << 31}
	for n := range distSeedFloats {
		scores := make([]float64, len(ids))
		for i := range scores {
			scores[i] = distSeedFloats[(n+i)%len(distSeedFloats)]
		}
		vec := packFloats(distSeedFloats[(n+1)%len(distSeedFloats)], distSeedFloats[(n+2)%len(distSeedFloats)])
		f.Add(packRows(ids[:n%len(ids)], scores), vec, uint8(n%3), uint64(n), math.Float64bits(distSeedFloats[n]), int64(n))
	}
	// Empty rows; nil, empty and one-element vectors; a zero affinity
	// (omitted from a vector reply) and a negative zero.
	for kind := uint8(0); kind < 3; kind++ {
		f.Add([]byte{}, packFloats(0.5), kind, uint64(math.MaxUint64), uint64(0), int64(10))
		f.Add(packRows([]int{7}, []float64{1e-7}), []byte{}, kind, uint64(1), math.Float64bits(math.Copysign(0, -1)), int64(-3))
	}
	f.Fuzz(func(t *testing.T, rows, vecBytes []byte, vecKind uint8, ver uint64, affBits uint64, k int64) {
		res := distRows(rows)
		var vec []float64
		switch vecKind % 3 {
		case 1:
			vec = []float64{}
		case 2:
			vec = distFloats(vecBytes)
		}
		aff := math.Float64frombits(affBits)
		checkWrite(t, true, ver, res, vec, aff)
		checkWrite(t, false, ver, res, nil, aff)
		checkVectorBody(t, vec, int(k))
	})
}

// distReplySeeds are the search replies of the wire transcripts, and
// shapes the scanner declines.
func distReplySeeds(f *testing.F) {
	f.Helper()
	for _, name := range []string{"dist_owner", "dist_vector", "dist_set"} {
		data, err := os.ReadFile(filepath.Join("testdata", "wire", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		var tr struct {
			Steps []struct {
				Reply string `json:"reply"`
			} `json:"steps"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		for _, st := range tr.Steps {
			f.Add([]byte(st.Reply))
		}
	}
	for _, body := range []string{
		`{"version":0,"answers":[],"vector":[],"affinity":0}`,
		`{"version":2,"answers":[{"item":-0,"score":-0}],"affinity":1e-7}` + "\n",
		`{"version":2,"answers":[{"item":1,"score":2}],"vector":null,"affinity":1}`,
		`{"version":2,"answers":[{"item":1,"score":2,"label":3}]}`,
		`{"version":2,"answers":[{"score":2,"item":1}]}`,
		`{"version":2,"answers":[{"item":1.0,"score":2}]}`,
		`{"version":-1,"answers":[]}`,
		`{"version":18446744073709551616,"answers":[]}`,
		`{"version":1,"answers":[{"item":1,"score":1e999}]}`,
		`{"version":1,"answers":[],"affinity":0.5,"affinity":1}`,
		`{"version":1,"answers":[] }`,
		`{"version":1,"answers":[],"vector":[1, 2 ,3],"affinity":0.5}`,
		`{"Version":1,"answers":[]}`,
		`{"version":1,"answers":[]}x`,
		`{"version":1,"answers":[{"item":1,"score":2},]}`,
		`{"version":1,"answers":[{"item":1,"score":2}`,
	} {
		f.Add([]byte(body))
	}
}

// FuzzScanDistReply holds the reply scanner to encoding/json on any
// bytes: for each reply type, scan either declines, leaving its target
// as it was, or json.Unmarshal accepts the same bytes and reads the same
// results, vector and affinity, bit for bit.
func FuzzScanDistReply(f *testing.F) {
	distReplySeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, owner := range []bool{true, false} {
			var got searchReply
			if !got.scan(body, owner) {
				if got.res != nil || got.vec != nil || got.aff != 0 {
					t.Fatalf("owner=%v: scanner declined %q but wrote %+v", owner, body, got)
				}
				continue
			}
			var res []serve.Answer
			var vec []float64
			var aff float64
			var err error
			if owner {
				var r ownerResponse
				err = json.Unmarshal(body, &r)
				res, vec, aff = r.Answers, r.Vector, r.Affinity
			} else {
				var r vectorResponse
				err = json.Unmarshal(body, &r)
				res, aff = r.Answers, r.Affinity
			}
			if err != nil {
				t.Fatalf("owner=%v: scanner accepted %q, encoding/json rejects it: %v", owner, body, err)
			}
			if !sameResults(got.res, fromWire(res)) || !sameFloats(got.vec, vec) || math.Float64bits(got.aff) != math.Float64bits(aff) {
				t.Fatalf("owner=%v: %q: scanner %+v, encoding/json %+v %v %v", owner, body, got, res, vec, aff)
			}
		}
	})
}

// TestDecodeRejectsNonCanonical: a search reply scan declines is an
// error, even one encoding/json would read — there is no second decoder.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	body := []byte(`{"version":1, "answers":[{"item":1,"score":0.5}]}`)
	var resp vectorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("encoding/json rejects the body: %v", err)
	}
	var r searchReply
	if err := r.decode(body, false); !errors.Is(err, errNotCanonical) || r.res != nil {
		t.Fatalf("decode = %v, %+v; want errNotCanonical and nothing kept", err, r)
	}
}

// TestBoundCodec holds appendBound to json.Marshal of the reply's
// fields, scanBound to the bits appendBound wrote, and scanBound to
// refusing what appendBound never writes or a bound whose balls do not
// add up.
func TestBoundCodec(t *testing.T) {
	type oracle struct {
		Dim     int       `json:"dim"`
		Sigma   float64   `json:"sigma"`
		SMax    float64   `json:"s_max"`
		Centres []float64 `json:"centres"`
		Radii   []float64 `json:"radii"`
	}
	for _, pb := range []mogul.ProbeBound{
		{Dim: 1, Sigma: 1, SMax: 1, Centres: []float64{0}, Radii: []float64{0}},
		{Dim: 2, Sigma: 0.1755057939114406, SMax: 48.9044240997221, Centres: []float64{-2.5e-7, 1e21, 3, math.Copysign(0, -1)}, Radii: []float64{0.5458200608849108, 0}},
	} {
		b, err := appendBound(nil, &pb)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(oracle{pb.Dim, pb.Sigma, pb.SMax, pb.Centres, pb.Radii})
		if string(b) != string(want)+"\n" {
			t.Fatalf("appendBound wrote %s, json.Marshal %s", b, want)
		}
		got, ok := scanBound(b)
		if !ok || got.Dim != pb.Dim || math.Float64bits(got.Sigma) != math.Float64bits(pb.Sigma) ||
			math.Float64bits(got.SMax) != math.Float64bits(pb.SMax) || !sameFloatBits(got.Centres, pb.Centres) || !sameFloatBits(got.Radii, pb.Radii) {
			t.Fatalf("scanBound(%s) = %+v, %v", b, got, ok)
		}
	}
	if _, err := appendBound(nil, &mogul.ProbeBound{Dim: 1, Sigma: 1, SMax: math.Inf(1), Centres: []float64{0}, Radii: []float64{0}}); !errors.Is(err, jsonwire.ErrNonFinite) {
		t.Fatalf("appendBound of an infinite s_max: %v", err)
	}
	for _, body := range []string{
		`{"dim":2,"sigma":1,"s_max":1,"centres":[0,1,2],"radii":[0]}`,
		`{"dim":0,"sigma":1,"s_max":1,"centres":[],"radii":[]}`,
		`{"dim":1, "sigma":1,"s_max":1,"centres":[0],"radii":[0]}`,
		`{"dim":1,"sigma":1,"s_max":1,"centres":[0],"radii":[0]}x`,
		`{"dim":1,"sigma":1,"s_max":1,"centres":null,"radii":null}`,
	} {
		if pb, ok := scanBound([]byte(body)); ok {
			t.Fatalf("scanBound took %s as %+v", body, pb)
		}
	}
}

// sameFloatBits reports whether a and b hold the same float64 bits.
func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
