package mogul

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the index loader. The contract
// under fuzz: Load never panics — corrupt, truncated, hostile, or
// version-skewed input must yield an error — and any input it does
// accept must produce an index that searches without panicking. Run
// the stored corpus on every `go test`; explore with
//
//	go test -fuzz FuzzLoad -fuzztime 30s .

// fuzzSeedIndex builds one small static and one dynamic index and
// returns their serialized forms — both version 3 — plus the two
// version-4 layouts of the dynamic one (packed float32, aligned
// float64), so the streaming reader starts from every layout it must
// accept; computed once, shared by seeds and target.
var fuzzSeedIndex = sync.OnceValue(func() (seeds struct{ static, dynamic, f32, aligned []byte }) {
	ds := NewMixture(MixtureConfig{
		N: 80, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 7,
	})
	save := func(save func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	for _, prec := range []Precision{F64, F32} {
		ix, err := Build(ds.Points[:70], Options{Precision: prec})
		if err != nil {
			panic(err)
		}
		if prec == F64 {
			seeds.static = save(ix.Save)
		}
		for _, p := range ds.Points[70:] {
			if _, err := ix.Insert(p); err != nil {
				panic(err)
			}
		}
		if err := ix.Delete(3); err != nil {
			panic(err)
		}
		if err := ix.Delete(71); err != nil {
			panic(err)
		}
		if prec == F64 {
			seeds.dynamic = save(ix.Save)
			seeds.aligned = save(func(w io.Writer) error { return ix.SaveAligned(w, 64) })
		} else {
			seeds.f32 = save(ix.Save)
		}
	}
	return seeds
})

func FuzzLoad(f *testing.F) {
	seeds := fuzzSeedIndex()
	static, dynamic := seeds.static, seeds.dynamic
	f.Add(static)
	f.Add(dynamic)
	for _, v4 := range [][]byte{seeds.f32, seeds.aligned} {
		f.Add(v4)
		f.Add(v4[:len(v4)/2]) // truncation
		flipped := append([]byte(nil), v4...)
		flipped[len(flipped)/3] ^= 0x5A // body corruption
		f.Add(flipped)
	}
	f.Add(static[:len(static)/2])               // truncation
	f.Add(dynamic[:len(dynamic)-3])             // clipped checksum
	f.Add([]byte{})                             // empty
	f.Add([]byte("MOGULIDX"))                   // header only
	f.Add([]byte("GOBSTREAMthis was format 1")) // wrong magic
	mutated := append([]byte(nil), dynamic...)
	mutated[len(mutated)/3] ^= 0x5A // body corruption
	f.Add(mutated)
	versioned := append([]byte(nil), static...)
	versioned[8] = 0xFF // far-future version
	f.Add(versioned)

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, ok := ix.(*EMRIndex); ok {
			// EMR engines have no neighbour graph and their own fuzz
			// target (FuzzLoadEMR) with the matching contract.
			return
		}
		// Accepted input must behave: searches, dynamic ops and a
		// re-save all run without panicking.
		if ix.Len() <= 0 {
			t.Fatalf("loaded index has %d items", ix.Len())
		}
		if _, err := ix.TopK(0, 3); err != nil {
			t.Fatalf("loaded index cannot search: %v", err)
		}
		if _, _, err := ix.Neighbors(0); err != nil {
			t.Fatalf("loaded index cannot serve neighbours: %v", err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatalf("loaded index cannot re-save: %v", err)
		}
	})
}
