package mogul

// The EMR engine's bounded cell scan (collect in emr.go) against the
// loop it replaced. exhaustiveCollect below is that loop, kept verbatim
// as the oracle — the only unconditional O(n*s) pass over the H columns
// left in the tree — and the differential test holds every query entry
// point to it along random mutation and persistence sequences in both
// precisions. The contract is the spectral scan's (sameAsFullScan in
// spectral_prune_test.go): the score sequence is the exhaustive scan's
// to the bit; ids match except among items tied exactly at the k-th
// score, where the order of offers (the query's own cells first) may
// keep a different one of the tied items — and even there every
// returned pair is a true (id, score) pair.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mogul/internal/vec"
)

// exhaustiveCollect is collect as it was before the cell scan: combine
// the rows of M the right-hand side touches, then offer every live row
// in id order. The searcher must be prepared (sr.rhs filled).
func exhaustiveCollect(sr *EMRSearcher, k int, seeds []seedWeight) []Result {
	e := sr.e
	st := e.st
	z := sr.z
	clear(z)
	for a, r := range sr.rhs {
		if r != 0 {
			vec.Axpy(z, r, st.gramInv.Row(a))
		}
	}
	n := st.numPoints()
	sr.resetCollector(k)
	si := 0
	s := st.s
	for i := 0; i < n; i++ {
		if st.dead[i] {
			continue
		}
		off := i * s
		sum := st.hVal.DotGather(i, st.hAnchor[off:off+s], z)
		sum *= e.alpha
		if si < len(seeds) && seeds[si].id == i {
			sum += seeds[si].w
			si++
		}
		sr.col.Offer(i, (1-e.alpha)*sum)
	}
	return sr.results()
}

// exhaustiveSeeds prepares a fresh searcher the way searcher.topKSeeds
// and scoreSeeds do, then runs the exhaustive scan.
func exhaustiveSeeds(e *EMRIndex, ids []int, weight float64, k int) []Result {
	sr := e.NewSearcher()
	st := e.st
	for _, id := range ids {
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: weight})
	}
	sr.ensure(st.p)
	seeds := normalizeSeeds(sr.seeds)
	for _, sw := range seeds {
		ids, ws := st.column(sw.id, nil)
		for t, w := range ws {
			sr.rhs[ids[t]] += sw.w * w
		}
	}
	return exhaustiveCollect(sr, k, seeds)
}

// exhaustiveVector is scoreVector's preparation followed by the
// exhaustive scan.
func exhaustiveVector(e *EMRIndex, q Vector, k int) []Result {
	sr := e.NewSearcher()
	sr.ensure(e.st.p)
	sr.affinity(q)
	for t, a := range sr.wIdx {
		sr.rhs[a] = sr.wVal[t]
	}
	return exhaustiveCollect(sr, k, nil)
}

// emrPrunePrecisions are the storage forms every test here runs in.
var emrPrunePrecisions = []struct {
	name string
	prec Precision
}{{"f64", F64}, {"f32", F32}}

// emrPruneCorpus draws the differential fixture: micro-clusters like the
// benchmark's emr_vec corpus (so most cells are prunable), with every
// eighth base point stored twice (identical H columns, so exactly tied
// scores), and a pool of held-out vectors to insert and to query with.
func emrPruneCorpus(seed int64) (base, pool []Vector) {
	pts := NewMixture(MixtureConfig{N: 1300, Classes: 130, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: seed}).Points
	for i, p := range pts[:1200] {
		base = append(base, p)
		if i%8 == 0 {
			base = append(base, append(Vector(nil), p...))
		}
	}
	// Clipped: an engine appends to the base slice it is built from.
	return base[:len(base):len(base)], pts[1200:]
}

// checkAgainstExhaustive runs every query entry point over a spread of
// queries and k against the exhaustive scan.
func checkAgainstExhaustive(t *testing.T, e *EMRIndex, stage string, rng *rand.Rand, pool []Vector) {
	t.Helper()
	var liveIDs []int
	for id := 0; id < e.IDSpace(); id++ {
		if e.Alive(id) {
			liveIDs = append(liveIDs, id)
		}
	}
	live := len(liveIDs)
	check := func(label string, got func(k int) ([]Result, error), want func(k int) []Result) {
		t.Helper()
		all := want(live)
		for _, k := range []int{1, 10, 100, live, live + 5} {
			res, err := got(k)
			if err != nil {
				t.Fatalf("%s %s k=%d: %v", stage, label, k, err)
			}
			sameAsFullScan(t, fmt.Sprintf("%s %s k=%d", stage, label, k), res, want(k), all)
		}
	}
	pick := func() int { return liveIDs[rng.Intn(live)] }

	// The first and the last live id (a delta item whenever the stage has
	// any) and two random ones.
	for _, q := range []int{liveIDs[0], liveIDs[live-1], pick(), pick()} {
		check(fmt.Sprintf("TopK(%d)", q),
			func(k int) ([]Result, error) { return e.TopK(q, k) },
			func(k int) []Result { return exhaustiveSeeds(e, []int{q}, 1, k) })
	}
	// Random seeds sit in different micro-clusters, so each seed's cell is
	// one the bound would skip on behalf of the others; the second set
	// repeats a seed.
	a, b := pick(), pick()
	for _, set := range [][]int{{pick(), a, liveIDs[live-1]}, {b, pick(), b, a}} {
		w := 1 / float64(len(set))
		check(fmt.Sprintf("TopKSet(%v)", set),
			func(k int) ([]Result, error) { return e.TopKSet(set, k) },
			func(k int) []Result { return exhaustiveSeeds(e, set, w, k) })
		// A negative weight turns the ranking upside down: z is negative
		// where it was large, c0 is 0, and the threshold the seeds' cells
		// set is the worst score, not the best.
		check(fmt.Sprintf("TopKSetWeighted(%v, -0.5)", set),
			func(k int) ([]Result, error) { return e.TopKSetWeighted(set, -0.5, k) },
			func(k int) []Result { return exhaustiveSeeds(e, set, -0.5, k) })
	}
	for vi, v := range []Vector{pool[rng.Intn(len(pool))], e.st.pointVec(pick())} {
		check(fmt.Sprintf("TopKVector(#%d)", vi),
			func(k int) ([]Result, error) { return e.TopKVector(v, k) },
			func(k int) []Result { return exhaustiveVector(e, v, k) })
	}
}

// TestEMRPrunedMatchesExhaustive is the differential test: {f64, F32} x
// three seeds, each a random walk over Insert / Delete / Compact /
// Save->Load / aligned save->LoadFileMapped with the full query spread
// after every step.
func TestEMRPrunedMatchesExhaustive(t *testing.T) {
	for _, form := range emrPrunePrecisions {
		for _, seed := range []int64{81, 82, 86} {
			t.Run(fmt.Sprintf("%s/seed%d", form.name, seed), func(t *testing.T) {
				t.Parallel()
				base, pool := emrPruneCorpus(seed)
				e, err := BuildEMR(base, Options{Seed: seed, Precision: form.prec}, EMROptions{NumAnchors: 96, NumNearestAnchors: 6})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				checkAgainstExhaustive(t, e, "fresh", rng, pool)
				// Every operation once in a shuffled order, then three more
				// at random; the walk starts with a delta so the loads and
				// the compaction have one to carry.
				ops := []string{"insert", "delete", "compact", "load", "mapped"}
				rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
				ops = append([]string{"insert", "delete"}, ops...)
				for i := 0; i < 3; i++ {
					ops = append(ops, ops[2+rng.Intn(5)])
				}
				for step, op := range ops {
					switch op {
					case "insert":
						for i := 0; i < 12; i++ {
							if _, err := e.Insert(pool[rng.Intn(len(pool))]); err != nil {
								t.Fatal(err)
							}
						}
					case "delete":
						for i := 0; i < 9; i++ {
							id := rng.Intn(e.IDSpace())
							if e.Alive(id) {
								if err := e.Delete(id); err != nil {
									t.Fatal(err)
								}
							}
						}
					case "compact":
						if err := e.Compact(); err != nil {
							t.Fatal(err)
						}
					case "load":
						var buf bytes.Buffer
						if err := e.Save(&buf); err != nil {
							t.Fatal(err)
						}
						if e, err = LoadEMR(&buf); err != nil {
							t.Fatal(err)
						}
					case "mapped":
						path := filepath.Join(t.TempDir(), "emr.idx")
						if err := e.SaveFileAligned(path, 4096); err != nil {
							t.Fatal(err)
						}
						r, closer, err := LoadFileMapped(path)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { closer.Close() })
						e = r.(*EMRIndex)
					}
					checkAgainstExhaustive(t, e, fmt.Sprintf("step %d (%s)", step, op), rng, pool)
				}
			})
		}
	}
}

// TestEMRCellBoundDominates is the white-box half: for any z — the z of
// random non-negative right-hand sides, and raw vectors from mixed-sign
// through deep underflow to near overflow — every cell's bound is at
// least the score collect would compute for each of its members, in
// both precisions. That holds for the exact gather (cellBound) and for
// the pushed two-tier bound at tau = 0 (the gather's terms, pushed), at
// the tau collect would derive from the k = 10 threshold, and at a tau
// just above every remainder (the first tier alone). Where a bound is a
// number at all it must dominate; where z overflows it must not be one.
func TestEMRCellBoundDominates(t *testing.T) {
	for _, form := range emrPrunePrecisions {
		t.Run(form.name, func(t *testing.T) {
			t.Parallel()
			base, _ := emrPruneCorpus(83)
			e, err := BuildEMR(base, Options{Seed: 83, Precision: form.prec}, EMROptions{NumAnchors: 96, NumNearestAnchors: 6})
			if err != nil {
				t.Fatal(err)
			}
			st := e.st
			cl := &st.cells
			sr := e.NewSearcher()
			sr.ensure(st.p)
			rng := rand.New(rand.NewSource(83))
			score := func(i int32) float64 { return (1 - e.alpha) * (e.alpha * st.dotColumn(int(i), sr.z)) }
			// taus are the levels the pushed bound is checked at for the
			// remainder in sr.rem.
			taus := func(c0, scale float64) []float64 {
				all := make([]float64, 0, st.baseN)
				for i := 0; i < st.baseN; i++ {
					all = append(all, score(int32(i)))
				}
				slices.SortFunc(all, func(a, b float64) int { return cmp.Compare(b, a) })
				maxRem := 0.0
				for _, r := range sr.rem {
					if r > maxRem { // a NaN rem is not a level
						maxRem = r
					}
				}
				return []float64{0, sr.pushLevel(all[9], c0, scale), math.Nextafter(maxRem, math.Inf(1))}
			}
			dominated := func(label string) {
				t.Helper()
				c0, scale := sr.splitBackground()
				for c := 0; c < st.p; c++ {
					bound := sr.cellBound(c, c0, scale)
					for _, i := range cl.rows[cl.rowPtr[c]:cl.rowPtr[c+1]] {
						if s := score(i); !(bound >= s) && bound <= math.MaxFloat64 {
							t.Fatalf("%s: row %d of cell %d scores %g above the cell's bound %g (c0 = %g)", label, i, c, s, bound, c0)
						}
					}
				}
				for _, tau := range taus(c0, scale) {
					sr.pushBound(c0, tau)
					for c := 0; c < st.p; c++ {
						// The two tiers are c0 gmax_c + sum_u maxW_c[u] max(rem[u], tau):
						// nothing pushed may be lost, nothing extra added.
						clamped := c0 * cl.gmax[c]
						for j := cl.annPtr[c]; j < cl.annPtr[c+1]; j++ {
							clamped += cl.maxW[j] * max(sr.rem[cl.ann[j]], tau)
						}
						if d := math.Abs(sr.acc[c] - clamped); d > 1e-12*clamped+pruneAbsSlack {
							t.Fatalf("%s: cell %d pushes to %g, its clamped sum is %g (c0 = %g, tau = %g)", label, c, sr.acc[c], clamped, c0, tau)
						}
						bound := scale*sr.acc[c] + pruneAbsSlack
						for _, i := range cl.rows[cl.rowPtr[c]:cl.rowPtr[c+1]] {
							if s := score(i); !(bound >= s) && bound <= math.MaxFloat64 {
								t.Fatalf("%s: row %d of cell %d scores %g above the cell's pushed bound %g (c0 = %g, tau = %g)", label, i, c, s, bound, c0, tau)
							}
						}
					}
				}
			}
			for trial := 0; trial < 40; trial++ {
				// A sparse non-negative right-hand side, as a query makes.
				clear(sr.rhs)
				clear(sr.z)
				for t := 0; t < 1+rng.Intn(2*st.s); t++ {
					sr.rhs[rng.Intn(st.p)] = rng.Float64()
				}
				for a, r := range sr.rhs {
					if r != 0 {
						vec.Axpy(sr.z, r, st.gramInv.Row(a))
					}
				}
				dominated(fmt.Sprintf("rhs trial %d", trial))
				if c0, _ := sr.splitBackground(); !(c0 > 0) {
					t.Fatalf("rhs trial %d: no background split off a non-negative right-hand side (c0 = %g)", trial, c0)
				}
			}
			for _, mag := range []float64{1, 1e-160, 1e-300, 1e150, 1e300} {
				for _, shape := range []string{"positive", "mixed", "background"} {
					for a := range sr.z {
						switch shape {
						case "positive":
							sr.z[a] = mag * rng.Float64()
						case "mixed":
							sr.z[a] = mag * rng.NormFloat64()
						case "background":
							// z = mag * v exactly: the remainder is pure rounding.
							sr.z[a] = mag * cl.v[a]
						}
					}
					dominated(fmt.Sprintf("%s z at magnitude %g", shape, mag))
				}
			}
			for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for a := range sr.z {
					sr.z[a] = rng.Float64()
				}
				sr.z[cl.ann[0]] = poison
				c0, scale := sr.splitBackground()
				if bound := sr.cellBound(0, c0, scale); bound <= math.MaxFloat64 {
					t.Fatalf("z with a %g on an anchor of cell 0 bounds it by %g", poison, bound)
				}
				for _, tau := range taus(c0, scale) {
					sr.pushBound(c0, tau)
					if bound := scale*sr.acc[0] + pruneAbsSlack; bound <= math.MaxFloat64 {
						t.Fatalf("z with a %g on an anchor of cell 0 pushes it a bound of %g at tau = %g", poison, bound, tau)
					}
				}
			}
		})
	}
}

// TestEMRSeedCellsScoredFirst: a row with a q_i term is scored with it
// even when the right-hand side does not reach its cell. The shared
// entry points cannot produce that (every seed carries the same weight,
// so a seed's own anchors always carry right-hand side), but collect's
// bound omits q_i and must not depend on it.
func TestEMRSeedCellsScoredFirst(t *testing.T) {
	t.Parallel()
	base, _ := emrPruneCorpus(87)
	e, err := BuildEMR(base, Options{Seed: 87}, EMROptions{NumAnchors: 96, NumNearestAnchors: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 700, len(base) - 1} {
		seeds := []seedWeight{{id: id, w: 1}}
		prepare := func() *EMRSearcher {
			sr := e.NewSearcher()
			sr.ensure(e.st.p)
			return sr
		}
		got, want := prepare().collect(3, seeds), exhaustiveCollect(prepare(), 3, seeds)
		sameAsFullScan(t, fmt.Sprintf("bare seed %d", id), got, want, exhaustiveCollect(prepare(), e.Len(), seeds))
		if got[0].Node != id || got[0].Score != 1-e.alpha {
			t.Fatalf("bare seed %d: top answer %+v, want the seed at %g", id, got[0], 1-e.alpha)
		}
	}
}

// TestEMRPruneWorkCounters pins both ends of the regime: on the
// clustered fixture a k = 10 query scores a small share of the rows, a
// k = 10 vector query enters fewer cells than its right-hand side
// touches anchors (s), and a query for at least every live item is the
// exhaustive scan. Entered plus skipped cells is p throughout.
func TestEMRPruneWorkCounters(t *testing.T) {
	t.Parallel()
	base, pool := emrPruneCorpus(84)
	e, err := BuildEMR(base, Options{Seed: 84}, EMROptions{NumAnchors: 96, NumNearestAnchors: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pool[:20] {
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Delete(9); err != nil {
		t.Fatal(err)
	}
	live := e.Len()
	scored := 0
	queries := []int{3, 400, 801, 1203, len(base) - 1, len(base) + 10}
	for _, q := range queries {
		_, info, err := e.TopKWithInfo(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if info.ClustersScanned+info.ClustersPruned != e.NumAnchors() {
			t.Fatalf("query %d: %d cells entered + %d skipped, want %d in all", q, info.ClustersScanned, info.ClustersPruned, e.NumAnchors())
		}
		scored += info.ScoresComputed
	}
	if mean := float64(scored) / float64(len(queries)); mean > 0.2*float64(live) {
		t.Fatalf("k=10 on the clustered fixture scores %.1f rows per query, want at most 20%% of %d", mean, live)
	}
	// Entering every cell the right-hand side touches would be s per
	// query; a query between two micro-clusters may still need more.
	sr := e.NewSearcher()
	vectors := pool[20:40]
	entered := 0
	for qi, v := range vectors {
		if _, err := sr.TopKVector(v, 10); err != nil {
			t.Fatal(err)
		}
		info := sr.work()
		if info.ClustersScanned+info.ClustersPruned != e.NumAnchors() {
			t.Fatalf("vector %d: %d cells entered + %d skipped, want %d in all", qi, info.ClustersScanned, info.ClustersPruned, e.NumAnchors())
		}
		entered += info.ClustersScanned
	}
	if mean := float64(entered) / float64(len(vectors)); mean >= float64(e.st.s) {
		t.Fatalf("k=10 vector queries enter %.1f cells on average, want fewer than the %d anchors a right-hand side touches", mean, e.st.s)
	}
	for _, k := range []int{live, live + 5} {
		_, info, err := e.TopKWithInfo(3, k)
		if err != nil {
			t.Fatal(err)
		}
		if info.ScoresComputed != live || info.ClustersPruned != 0 {
			t.Fatalf("k=%d of %d live: %+v, want every live row scored and no cell skipped", k, live, info)
		}
	}
}

// TestEMRCandidateOrder: the bound pass's heap pops its cells NaN bounds
// first, then by descending bound, ties to the lower cell id — the
// order a full sort gives, whatever order the cells arrive in. (The
// differential test cannot see a wrong order on its corpora: the cells
// that hold winners are entered either way.)
func TestEMRCandidateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	levels := []float64{math.NaN(), math.Inf(1), 3, 2, 2, 1, 0x1p-1000, 0}
	for trial := 0; trial < 200; trial++ {
		h := make([]cellKey, rng.Intn(40))
		for i := range h {
			h[i] = cellKey{bound: levels[rng.Intn(len(levels))], cell: int32(i)}
			if rng.Intn(2) == 0 {
				h[i].bound = rng.Float64()
			}
		}
		rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
		want := slices.Clone(h)
		slices.SortFunc(want, func(a, b cellKey) int {
			an, bn := math.IsNaN(a.bound), math.IsNaN(b.bound)
			switch {
			case an != bn && an:
				return -1
			case an != bn:
				return 1
			case !an && a.bound != b.bound:
				return cmp.Compare(b.bound, a.bound)
			}
			return cmp.Compare(a.cell, b.cell)
		})
		heapify(h)
		for i, w := range want {
			var got cellKey
			got, h = popCell(h)
			if got.cell != w.cell {
				t.Fatalf("trial %d: pop %d is cell %d (bound %g), want cell %d (bound %g)", trial, i, got.cell, got.bound, w.cell, w.bound)
			}
		}
	}
}

// checkCellTable holds the anchor-major half of st.cells to its
// definition: every (cell, anchor, maxW) of ann/maxW appears in the
// transpose exactly once, each anchor's cells ascend, sumW is each
// cell's maxW summed in order, and maxSumW / maxGmax are the maxima. The
// table must also be what deriving it afresh from the state's stored
// weights gives — for an F32 state, from the narrowed ones.
func checkCellTable(t *testing.T, label string, st *emrState) {
	t.Helper()
	cl := &st.cells
	type entry struct {
		cell, anchor int32
		w            uint64
	}
	count := map[entry]int{}
	for c := 0; c < st.p; c++ {
		sum := 0.0
		for j := cl.annPtr[c]; j < cl.annPtr[c+1]; j++ {
			count[entry{int32(c), cl.ann[j], math.Float64bits(cl.maxW[j])}]++
			sum += cl.maxW[j]
		}
		if sum != cl.sumW[c] {
			t.Fatalf("%s: cell %d has sumW %g, its maxW sum to %g", label, c, cl.sumW[c], sum)
		}
	}
	if len(cl.tPtr) != st.p+1 || cl.tPtr[st.p] != len(cl.ann) {
		t.Fatalf("%s: the transpose spans %d anchors and %d entries, want %d and %d", label, len(cl.tPtr)-1, cl.tPtr[len(cl.tPtr)-1], st.p, len(cl.ann))
	}
	for u := 0; u < st.p; u++ {
		for j := cl.tPtr[u]; j < cl.tPtr[u+1]; j++ {
			if j > cl.tPtr[u] && cl.tCell[j-1] >= cl.tCell[j] {
				t.Fatalf("%s: anchor %d lists cell %d after cell %d", label, u, cl.tCell[j], cl.tCell[j-1])
			}
			e := entry{cl.tCell[j], int32(u), math.Float64bits(cl.tW[j])}
			if count[e]--; count[e] < 0 {
				t.Fatalf("%s: the transpose lists (cell %d, anchor %d, %g), which ann/maxW hold fewer times", label, e.cell, u, cl.tW[j])
			}
		}
	}
	for e, n := range count {
		if n != 0 {
			t.Fatalf("%s: (cell %d, anchor %d, %g) of ann/maxW is missing from the transpose", label, e.cell, e.anchor, math.Float64frombits(e.w))
		}
	}
	if cl.maxSumW != slices.Max(cl.sumW) || cl.maxGmax != slices.Max(cl.gmax) {
		t.Fatalf("%s: maxSumW %g / maxGmax %g, want %g / %g", label, cl.maxSumW, cl.maxGmax, slices.Max(cl.sumW), slices.Max(cl.gmax))
	}
	twin := *st
	twin.deriveCells()
	if !reflect.DeepEqual(twin.cells, st.cells) {
		t.Fatalf("%s: the table differs from one derived afresh from the stored weights", label)
	}
}

// TestEMRCellTable checks the derived table wherever a state is born:
// BuildEMR in both precisions (F32 through narrow32, deriving once from
// the rounded weights), LoadEMR, LoadFileMapped and Compact.
func TestEMRCellTable(t *testing.T) {
	for _, form := range emrPrunePrecisions {
		t.Run(form.name, func(t *testing.T) {
			t.Parallel()
			base, pool := emrPruneCorpus(88)
			e, err := BuildEMR(base, Options{Seed: 88, Precision: form.prec}, EMROptions{NumAnchors: 96, NumNearestAnchors: 6})
			if err != nil {
				t.Fatal(err)
			}
			if e.st.f32() != (form.prec == F32) {
				t.Fatalf("built f32 = %v", e.st.f32())
			}
			checkCellTable(t, "build", e.st)
			for _, v := range pool[:10] {
				if _, err := e.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []int{4, 500, 1001} {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadEMR(&buf)
			if err != nil {
				t.Fatal(err)
			}
			checkCellTable(t, "LoadEMR", loaded.st)
			path := filepath.Join(t.TempDir(), "emr.idx")
			if err := e.SaveFileAligned(path, 4096); err != nil {
				t.Fatal(err)
			}
			r, closer, err := LoadFileMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			checkCellTable(t, "LoadFileMapped", r.(*EMRIndex).st)
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			if e.st.f32() != (form.prec == F32) {
				t.Fatalf("compacted f32 = %v", e.st.f32())
			}
			checkCellTable(t, "Compact", e.st)
		})
	}
}

// FuzzEMRScan holds the bounded scan to the exhaustive one over fuzzed
// out-of-sample queries (finite components), k in [1, live + 5] and a
// tombstone mask (bit i mod 8*len(mask) marks id i dead) on the 96-anchor
// prune corpus with a delta, in both precisions: same ids and
// Float64bits under sameAsFullScan's tie rule. A query whose exhaustive
// ranking holds a NaN score — a vector so far out that its anchor
// distances overflow — is skipped: Offer cannot order a NaN, so which
// NaN-scored items a collector keeps depends on the order of offers (and
// serve refuses such an answer).
func FuzzEMRScan(f *testing.F) {
	base, pool := emrPruneCorpus(89)
	var engines []*EMRIndex
	for _, form := range emrPrunePrecisions {
		e, err := BuildEMR(base, Options{Seed: 89, Precision: form.prec}, EMROptions{NumAnchors: 96, NumNearestAnchors: 6})
		if err != nil {
			f.Fatal(err)
		}
		for _, v := range pool[:12] {
			if _, err := e.Insert(v); err != nil {
				f.Fatal(err)
			}
		}
		engines = append(engines, e)
	}
	for i, v := range pool[12:20] {
		f.Add(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], []int{1, 10, 100, 2000}[i%4], []byte{byte(i * 37)})
	}
	f.Add(1e150, -1e150, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10, []byte{})
	f.Add(1e-300, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5, []byte{0xfe, 0xff})
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, x4, x5, x6, x7 float64, k int, mask []byte) {
		q := Vector{x0, x1, x2, x3, x4, x5, x6, x7}
		for _, x := range q {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
		}
		for _, e := range engines {
			st := *e.st
			st.dead = make([]bool, len(e.st.dead))
			st.deadCount, st.deadBase = 0, 0
			for i := range st.dead {
				if len(mask) > 0 && mask[i/8%len(mask)]>>(i%8)&1 == 1 {
					st.dead[i] = true
					st.deadCount++
					if i < st.baseN {
						st.deadBase++
					}
				}
			}
			live := st.live()
			if live == 0 {
				continue
			}
			masked := newEMRIndex(e.alpha, e.seed, 0, e.eopts, &st)
			all := exhaustiveVector(masked, q, live)
			if slices.ContainsFunc(all, func(r Result) bool { return math.IsNaN(r.Score) }) {
				t.Skip()
			}
			k := 1 + int(uint(k)%uint(live+5))
			got, err := masked.TopKVector(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameAsFullScan(t, fmt.Sprintf("f32=%v k=%d", st.f32(), k), got, exhaustiveVector(masked, q, k), all)
		}
	})
}

// corruptWeightImages derives, from a plain (unaligned) version-3 image
// of an engine with n items, the lies about a stored attachment weight
// that survive the checksum: a negative, a NaN and an infinite one among
// the base rows. Versions 2 and up are not scanned for finiteness, but
// the cell pass reads the base weights anyway and its bound holds only
// over non-negative finite ones, so each must fail at load. A negative
// weight on the last row — a delta row when the engine has any, which
// belongs to no cell and is always scored — loads as it always did.
func corruptWeightImages(data []byte, n, s int, f32 bool) (bad map[string][]byte, tolerated []byte) {
	// Walk the frame to EHCO: [tag 4][len 8][payload], payload =
	// [count 8][n*s int32][count 8][n*s weights]...
	pos := len(emrMagic) + 4
	for !bytes.Equal(data[pos:pos+4], tagEhco[:]) {
		pos += 12 + int(binary.LittleEndian.Uint64(data[pos+4:]))
	}
	weights := pos + 12 + 8 + 4*n*s + 8
	poke := func(fp int, x float64) []byte {
		out := append([]byte(nil), data...)
		if f32 {
			binary.LittleEndian.PutUint32(out[weights+4*fp:], math.Float32bits(float32(x)))
		} else {
			binary.LittleEndian.PutUint64(out[weights+8*fp:], math.Float64bits(x))
		}
		return restamp(out)
	}
	return map[string][]byte{
		"negative base weight": poke(2*s+1, -0.25),
		"NaN base weight":      poke(5*s, math.NaN()),
		"infinite base weight": poke(s-1, math.Inf(1)),
	}, poke((n-1)*s, -0.25)
}

// TestLoadEMRRejectsUnboundableWeight: a base weight the bound cannot
// cover is a load error on the stream and the in-memory decode path
// (the one LoadFileMapped hands the image to), in both precisions; on a
// delta row it is not, and the answer is still the exhaustive scan's.
func TestLoadEMRRejectsUnboundableWeight(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 90, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 85})
	for _, form := range emrPrunePrecisions {
		e, err := BuildEMR(ds.Points[:80:80], Options{Seed: 85, Precision: form.prec}, EMROptions{NumAnchors: 12, NumNearestAnchors: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ds.Points[80:] {
			if _, err := e.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		bad, tolerated := corruptWeightImages(buf.Bytes(), 90, 4, form.prec == F32)
		for label, image := range bad {
			if _, err := Load(bytes.NewReader(image)); err == nil {
				t.Errorf("%s %s: stream load accepted it", form.name, label)
			}
			if _, err := LoadEMRBytes(image); err == nil {
				t.Errorf("%s %s: in-memory load accepted it", form.name, label)
			}
		}
		loaded, err := LoadEMRBytes(tolerated)
		if err != nil {
			t.Fatalf("%s: negative delta weight: %v", form.name, err)
		}
		got, err := loaded.TopK(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameAsFullScan(t, form.name+" negative delta weight", got, exhaustiveSeeds(loaded, []int{0}, 1, 10), exhaustiveSeeds(loaded, []int{0}, 1, 90))
	}
}
