package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// scanCanonical are bodies the scanner must take itself: were it to bail
// on one of these, every differential check below would still pass and
// only the speed would be gone.
var scanCanonical = []string{
	// The benchmark's shape: keys sorted, shortest-form floats, exponent
	// form below 1e-6.
	`{"k":10,"vector":[0.044715760932923,-0.07071067811865475,3.0517578125e-07,-1e-09,0.1,1,0]}`,
	// dist.Client's and the README's shape.
	`{"vector":[2.9,-2.1,0.1,0.9],"k":3}`,
	`{"vector":[2.9,-2.1,0.1,0.9]}`,
	"{ \"k\" : 3 ,\n\t\"vector\" : [ 2.9e0 , -21E-1 , 1e+1 , -0 , 0.0 , 1E-400 ]\r\n}\n",
	`{"vector":[]}`,
	`{"vector":[ ],"k":-0}`,
	`{"k":7}`,
	`{}`,
	` { } `,
}

// scanBails has one input per reason the scanner hands a body to
// encoding/json, valid and invalid JSON alike.
var scanBails = []string{
	// Valid JSON encoding/json accepts in its own way: null element and
	// value, case-folded, unknown, duplicate and escaped keys.
	`{"vector":[1,null,3,4],"k":3}`,
	`{"vector":null,"k":3}`,
	`{"Vector":[1,2],"K":3}`,
	`{"vector":[1,2],"k":3,"trace":true}`,
	`{"vector":[1,2,3],"vector":[4,5],"k":3}`,
	`{"k":1,"k":2}`,
	`{"\u0076ector":[1,2],"k":3}`,
	// Valid JSON encoding/json rejects by type: a number ParseFloat or
	// ParseInt ranges out, a k that is not an integer literal, values of
	// the wrong kind.
	`{"vector":[1e999],"k":3}`,
	`{"vector":[` + strings.Repeat("9", 400) + `]}`,
	`{"vector":[1,2],"k":99999999999999999999}`,
	`{"vector":[1,2],"k":3.0}`,
	`{"vector":[1,2],"k":1e1}`,
	`{"vector":[1,2],"k":"3"}`,
	`{"vector":[[1,2]]}`,
	`{"vector":["1"]}`,
	`{"vector":1}`,
	`{"vector":{"0":1}}`,
	`[1,2]`,
	`null`,
	// Trailing bytes.
	`{"vector":[1,2],"k":3}x`,
	`{"vector":[1,2],"k":3}{}`,
	`{"vector":[1,2],"k":3}` + "\x00",
	`{"k":3}        ,`,
	// Numbers strconv would take and the JSON grammar does not.
	`{"vector":[01]}`,
	`{"vector":[-01]}`,
	`{"vector":[+1]}`,
	`{"vector":[.5]}`,
	`{"vector":[1.]}`,
	`{"vector":[1.e3]}`,
	`{"vector":[1e]}`,
	`{"vector":[-]}`,
	`{"vector":[0x10]}`,
	`{"vector":[1_0]}`,
	`{"vector":[Inf]}`,
	`{"vector":[NaN]}`,
	// Array and object syntax, truncation, non-JSON whitespace.
	`{"vector":[1,]}`,
	`{"vector":[,1]}`,
	`{"vector":[1 2]}`,
	`{"vector":[1,2}`,
	`{"vector":[1,2`,
	`{"vector":[1,2],}`,
	`{,"vector":[1,2]}`,
	`{"vector" [1,2]}`,
	`{"vector":[1,2] "k":3}`,
	`{"vector":[1,2],"k":3`,
	`{"vector`,
	`{`,
	``,
	"\ufeff" + `{"vector":[1,2]}`,
	"{\"vector\":[1,\v2]}",
}

// scanSeeds adds the shared seed corpus: every request body in the wire
// transcripts, the canonical shapes and the bail shapes.
func scanSeeds(f *testing.F) {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("..", "dist", "testdata", "wire", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no wire transcripts to seed from (%v)", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var tr struct {
			Steps []struct {
				Body string `json:"body"`
			} `json:"steps"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, st := range tr.Steps {
			if st.Body != "" {
				f.Add([]byte(st.Body))
			}
		}
	}
	for _, body := range scanCanonical {
		f.Add([]byte(body))
	}
	for _, body := range scanBails {
		f.Add([]byte(body))
	}
}

// scanTarget is what the differential check needs of a request type:
// the scanner, and the decoded vector for the bit comparison.
type scanTarget interface {
	scannable
	vector() []float64
}

func (q *VectorQuery) vector() []float64   { return q.Vector }
func (q *InsertRequest) vector() []float64 { return q.Vector }

// checkScanAgainstJSON is the differential contract, encoding/json the
// oracle: starting from the same target value, scanner true means
// json.Unmarshal accepts the body and decodes the same value — nil and
// empty slices distinguished, every float bit for bit — and scanner
// false means the target was not written. fresh returns a new copy of
// the starting value.
func checkScanAgainstJSON[T scanTarget](t *testing.T, body []byte, fresh func() T) {
	t.Helper()
	got, want := fresh(), fresh()
	if !got.scanJSON(body) {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner bailed on %q but wrote %+v over %+v", body, got, want)
		}
		return
	}
	if err := json.Unmarshal(body, want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: scanner %+v, encoding/json %+v", body, got, want)
	}
	for i, x := range got.vector() {
		if y := want.vector()[i]; math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%q: element %d scanned as %x, encoding/json %x", body, i, math.Float64bits(x), math.Float64bits(y))
		}
	}
}

// Each body is checked from a zero target (where nil and empty differ)
// and from a filled one (where a key the body lacks must survive).

func checkVectorQuery(t *testing.T, body []byte) {
	t.Helper()
	checkScanAgainstJSON(t, body, func() *VectorQuery { return new(VectorQuery) })
	checkScanAgainstJSON(t, body, func() *VectorQuery { return &VectorQuery{Vector: []float64{7, 8}, K: 42} })
}

func checkInsertRequest(t *testing.T, body []byte) {
	t.Helper()
	checkScanAgainstJSON(t, body, func() *InsertRequest { return new(InsertRequest) })
	checkScanAgainstJSON(t, body, func() *InsertRequest { return &InsertRequest{Vector: []float64{7, 8}} })
}

func FuzzScanVectorQuery(f *testing.F) {
	scanSeeds(f)
	f.Fuzz(checkVectorQuery)
}

func FuzzScanInsertRequest(f *testing.F) {
	scanSeeds(f)
	f.Fuzz(checkInsertRequest)
}

// TestScanTakesCanonicalLeavesTheRest pins which arm each listed body
// takes — the differential check alone is satisfied by a scanner that
// always bails.
func TestScanTakesCanonicalLeavesTheRest(t *testing.T) {
	for _, body := range scanCanonical {
		if !new(VectorQuery).scanJSON([]byte(body)) {
			t.Errorf("VectorQuery scanner bailed on canonical %q", body)
		}
		// "k" is not one of InsertRequest's keys.
		if got, want := new(InsertRequest).scanJSON([]byte(body)), !strings.Contains(body, `"k"`); got != want {
			t.Errorf("InsertRequest scanner on %q = %v, want %v", body, got, want)
		}
		checkVectorQuery(t, []byte(body))
		checkInsertRequest(t, []byte(body))
	}
	for _, body := range scanBails {
		if new(VectorQuery).scanJSON([]byte(body)) {
			t.Errorf("VectorQuery scanner accepted %q", body)
		}
		if new(InsertRequest).scanJSON([]byte(body)) {
			t.Errorf("InsertRequest scanner accepted %q", body)
		}
		checkVectorQuery(t, []byte(body))
		checkInsertRequest(t, []byte(body))
	}
}

// TestScanRoundTripsMarshalledFloats: 10^5 random finite float64 bit
// patterns — every exponent, subnormals, both zeros — marshalled by
// encoding/json come back through the scanner bit for bit, on the
// scanner's own arm.
func TestScanRoundTripsMarshalledFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const vectors, dim = 100, 1000
	for n := 0; n < vectors; n++ {
		v := make([]float64, dim)
		for i := range v {
			for {
				v[i] = math.Float64frombits(rng.Uint64())
				if !math.IsNaN(v[i]) && !math.IsInf(v[i], 0) {
					break
				}
			}
		}
		v[0], v[1], v[2] = 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64
		body, err := json.Marshal(VectorQuery{Vector: v, K: n})
		if err != nil {
			t.Fatal(err)
		}
		var got VectorQuery
		if !got.scanJSON(body) {
			t.Fatalf("scanner bailed on a marshalled VectorQuery: %.200s", body)
		}
		if got.K != n || len(got.Vector) != dim {
			t.Fatalf("vector %d: scanned k=%d len=%d", n, got.K, len(got.Vector))
		}
		for i := range v {
			if math.Float64bits(got.Vector[i]) != math.Float64bits(v[i]) {
				t.Fatalf("vector %d element %d: %x came back %x", n, i, math.Float64bits(v[i]), math.Float64bits(got.Vector[i]))
			}
		}
	}
}
