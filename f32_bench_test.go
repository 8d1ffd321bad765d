package mogul

// f64-vs-f32 engine benchmarks. CI's bench-smoke job runs these
// next to the internal/vec kernel benches:
//
//	go test -run '^$' -bench 'BenchmarkF32' -benchmem -benchtime 30x -timeout 20m .
//	go test -run '^$' -bench 'BenchmarkKernel' -benchmem -benchtime 100x ./internal/vec
//
// TopK latency and allocation profile per engine in each storage
// precision, plus end-to-end build cost (builds always
// run in f64 and narrow once at the end, so the f32 build rows price
// exactly that narrowing pass). The memory story itself is measured by
// `mogul-bench -exp memory`; what -benchmem pins here is that the f32
// query path allocates no more than f64 per op.

import (
	"fmt"
	"sync"
	"testing"
)

// f32BenchFixtures builds each backend at n=20k in both precisions,
// once per process.
var f32BenchFixtures = sync.OnceValue(func() map[string]Retriever {
	ds := NewMixture(MixtureConfig{
		N: 20000, Classes: 25, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 13,
	})
	out := map[string]Retriever{}
	for _, prec := range []Precision{F64, F32} {
		opts := Options{Seed: 13, GraphK: 6, ApproximateGraph: true, Precision: prec}
		label := "f64"
		if prec == F32 {
			label = "f32"
		}
		ix, err := Build(ds.Points, opts)
		if err != nil {
			panic(err)
		}
		out["core/"+label] = ix
		emr, err := BuildEMR(ds.Points, opts, EMROptions{})
		if err != nil {
			panic(err)
		}
		out["emr/"+label] = emr
		spc, err := BuildSpectral(ds.Points, opts, SpectralOptions{})
		if err != nil {
			panic(err)
		}
		out["spectral/"+label] = spc
	}
	return out
})

// BenchmarkF32TopK: steady-state top-10 latency per engine and
// precision over a shared n=20k fixture. The f32 rows read half the
// bulk-array bytes per candidate; allocs/op must match the f64 rows.
func BenchmarkF32TopK(b *testing.B) {
	fx := f32BenchFixtures()
	queries := benchQueries(20000, 64)
	for _, name := range []string{
		"core/f64", "core/f32", "emr/f64", "emr/f32", "spectral/f64", "spectral/f32",
	} {
		r := fx[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.TopK(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF32Build: end-to-end build cost per precision at n=5k. The
// f32/f64 delta is the one-shot narrowing pass — builds accumulate in
// f64 either way, so a material gap here is a regression.
func BenchmarkF32Build(b *testing.B) {
	ds := NewMixture(MixtureConfig{
		N: 5000, Classes: 20, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 13,
	})
	for _, prec := range []Precision{F64, F32} {
		label := "f64"
		if prec == F32 {
			label = "f32"
		}
		opts := Options{Seed: 13, GraphK: 6, ApproximateGraph: true, Precision: prec}
		b.Run(fmt.Sprintf("core/%s", label), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(ds.Points, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("emr/%s", label), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildEMR(ds.Points, opts, EMROptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
