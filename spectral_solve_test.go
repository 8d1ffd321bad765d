package mogul

// The spectral head against the loop it used to be. expandHops now ends
// a closed hop ball with one small Cholesky solve when its gate says
// that is cheaper (solveClosed in spectral.go); iterateHops below is the
// expansion as it was — every closed component iterated to the mass
// tolerance — kept verbatim (plus the relative cut-off) as the oracle,
// the way spectral_prune_test.go keeps the full scan. The contract has
// two halves. Where the head is solved, the answer is the iteration's up
// to what the iteration itself left undone: every score within 1e-8 of
// the largest, ids equal wherever scores are further apart than that.
// Where the gate declines, nothing may move: same ids, same bits.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"mogul/internal/dense"
	"mogul/internal/sparse"
)

// iterateHops is expandHops without the solve: the Neumann prefix
// iterated until the un-diffused mass falls below hopMassTol of the
// seeds' mass, the frontier dies or the budget runs out.
func iterateHops(sr *SpectralSearcher, seeds []seedWeight) int {
	e := sr.e
	st := e.st
	sr.qepoch++
	sr.curID = sr.curID[:0]
	sr.touched = sr.touched[:0]
	mass := 0.0
	for _, sw := range seeds {
		sr.hop[sw.id] = sw.w
		sr.pw[sw.id] = sw.w
		sr.hstamp[sw.id] = sr.qepoch
		sr.curID = append(sr.curID, sw.id)
		sr.touched = append(sr.touched, sw.id)
		mass += math.Abs(sw.w)
	}
	cut := hopMassTol * mass
	S := st.graph
	sval, sval32 := S.Val, S.Val32
	spent := 0
	t := 1
	for ; ; t++ {
		if len(sr.curID) == 0 {
			break
		}
		if t >= e.sopts.Hops && (mass <= cut || spent >= e.sopts.HopBudget) {
			break
		}
		sr.eepoch++
		sr.nxtID = sr.nxtID[:0]
		for _, j := range sr.curID {
			v := e.alpha * sr.pw[j]
			a, b := S.RowPtr[j], S.RowPtr[j+1]
			if sval32 != nil {
				for x := a; x < b; x++ {
					i := S.Col[x]
					if sr.estamp[i] != sr.eepoch {
						sr.estamp[i] = sr.eepoch
						sr.tmp[i] = 0
						sr.nxtID = append(sr.nxtID, i)
					}
					sr.tmp[i] += float64(sval32[x]) * v
				}
			} else {
				for x := a; x < b; x++ {
					i := S.Col[x]
					if sr.estamp[i] != sr.eepoch {
						sr.estamp[i] = sr.eepoch
						sr.tmp[i] = 0
						sr.nxtID = append(sr.nxtID, i)
					}
					sr.tmp[i] += sval[x] * v
				}
			}
			spent += b - a
		}
		// Ascending-id accumulation keeps the float sums independent of
		// frontier discovery order.
		sort.Ints(sr.nxtID)
		mass = 0
		for _, i := range sr.nxtID {
			w := sr.tmp[i]
			sr.pw[i] = w
			mass += math.Abs(w)
			if sr.hstamp[i] != sr.qepoch {
				sr.hstamp[i] = sr.qepoch
				sr.hop[i] = w
				sr.touched = append(sr.touched, i)
			} else {
				sr.hop[i] += w
			}
		}
		sr.curID, sr.nxtID = sr.nxtID, sr.curID
	}
	return t
}

// seededSearcher prepares a fresh searcher the way searcher.topKSeeds and
// scoreSeeds do, up to the point where collect would run.
func seededSearcher(e *SpectralIndex, seeds []int, weight float64) *SpectralSearcher {
	sr := e.NewSearcher()
	st := e.st
	for _, id := range seeds {
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: weight})
	}
	sr.seeds = normalizeSeeds(sr.seeds)
	sr.ensure(st)
	for _, sw := range sr.seeds {
		st.axpyRow(sr.b, sw.w, sw.id)
	}
	sr.splitSeeds(sr.seeds)
	return sr
}

// attachedSearcher is scoreVector's preparation, and the affinity.
func attachedSearcher(e *SpectralIndex, q Vector) (*SpectralSearcher, float64) {
	sr := e.NewSearcher()
	st := e.st
	sr.ensure(st)
	m, mass := sr.att.attachLive(st, e.sopts.AttachK, q, false)
	for t := 0; t < m; t++ {
		id, w := sr.att.nbrID[t], sr.att.nbrW[t]
		st.axpyRow(sr.b, w, id)
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: w})
	}
	sr.seeds = normalizeSeeds(sr.seeds)
	sr.splitSeeds(sr.seeds)
	return sr, mass
}

// iterated answers a prepared searcher with the old head and today's scan.
func iterated(sr *SpectralSearcher, k int) []Result {
	return sr.scan(k, iterateHops(sr, sr.baseSeeds))
}

// headOf reports how the engine's own head ends for the prepared
// searcher: the horizon expandHops returns and the ball it touched.
func headOf(sr *SpectralSearcher) (hops, ball int) {
	hops = sr.expandHops(sr.baseSeeds)
	return hops, len(sr.touched)
}

// sameBits holds got to want exactly: ids and score bits, rank by rank.
func sameBits(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, the iteration returns %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d is (%d, %x), the iteration has (%d, %x)", label, i, got[i].Node, math.Float64bits(got[i].Score), want[i].Node, math.Float64bits(want[i].Score))
		}
	}
}

// sameWithinTol holds a solved answer to the iteration's: all is the
// iteration at k = live, i.e. every live item's score in rank order.
// Rank by rank the scores agree within 1e-8 of the largest score, and
// every returned item carries its own score within the same tolerance —
// which together pin the id at every rank whose score is further than
// that from its neighbours', and leave free only the order inside a run
// of (near-)ties: the zero fill beyond a closed ball, which the iteration
// orders by its 1e-8-scale tail.
func sameWithinTol(t *testing.T, label string, got, all []Result) {
	t.Helper()
	var top float64
	score := make(map[int]float64, len(all))
	for _, r := range all {
		top = max(top, math.Abs(r.Score))
		score[r.Node] = r.Score
	}
	tol := 1e-8 * top
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		if d := math.Abs(r.Score - all[i].Score); !(d <= tol) {
			t.Fatalf("%s: rank %d scores %g, the iteration %g (off by %g, tolerance %g)", label, i, r.Score, all[i].Score, d, tol)
		}
		own, ok := score[r.Node]
		if !ok || seen[r.Node] || !(math.Abs(r.Score-own) <= tol) {
			t.Fatalf("%s: rank %d pairs item %d with %g, the iteration scores it %g (or it is dead, or repeated)", label, i, r.Node, r.Score, own)
		}
		seen[r.Node] = true
	}
}

// checkAgainstIteration runs every query entry point against the
// iterated head. solved says which half of the contract the corpus is
// under: true demands that every head is solved and holds the answers to
// the tolerance, false that none is and holds them to the bit. inBall is
// an item whose component the stage has put delta seeds and tombstones
// into.
func checkAgainstIteration(t *testing.T, e *SpectralIndex, stage string, pool []Vector, solved bool, inBall int) {
	t.Helper()
	var liveIDs []int
	for id := 0; id < e.IDSpace(); id++ {
		if e.Alive(id) {
			liveIDs = append(liveIDs, id)
		}
	}
	live := len(liveIDs)
	check := func(label string, prepare func() *SpectralSearcher, got func(k int) ([]Result, error)) {
		t.Helper()
		if hops, ball := headOf(prepare()); (hops == hopsConverged) != solved {
			t.Fatalf("%s %s: head ends at horizon %d over a ball of %d, want solved = %v", stage, label, hops, ball, solved)
		}
		var all []Result
		if solved {
			all = iterated(prepare(), live)
		}
		for _, k := range []int{1, 10, 100} {
			res, err := got(k)
			if err != nil {
				t.Fatalf("%s %s k=%d: %v", stage, label, k, err)
			}
			at := fmt.Sprintf("%s %s k=%d", stage, label, k)
			if !solved {
				sameBits(t, at, res, iterated(prepare(), k))
				continue
			}
			if len(res) != min(k, live) {
				t.Fatalf("%s: %d results of %d live", at, len(res), live)
			}
			sameWithinTol(t, at, res, all)
		}
	}

	// The last live id is a delta item whenever the stage has any.
	for _, q := range []int{inBall, liveIDs[live/2], liveIDs[live-1]} {
		check(fmt.Sprintf("TopK(%d)", q),
			func() *SpectralSearcher { return seededSearcher(e, []int{q}, 1) },
			func(k int) ([]Result, error) { return e.TopK(q, k) })
	}
	// Seeds in different components: the ball is then a union of several,
	// and still closed.
	set := []int{inBall, liveIDs[live/3], liveIDs[live-1]}
	check(fmt.Sprintf("TopKSet(%v)", set),
		func() *SpectralSearcher { return seededSearcher(e, set, 1/float64(len(set))) },
		func(k int) ([]Result, error) { return e.TopKSet(set, k) })
	check(fmt.Sprintf("TopKSetWeighted(%v, -0.5)", set),
		func() *SpectralSearcher { return seededSearcher(e, set, -0.5) },
		func(k int) ([]Result, error) { return e.TopKSetWeighted(set, -0.5, k) })
	for vi, v := range []Vector{pool[0], e.st.pointVec(inBall)} {
		_, wantAff := attachedSearcher(e, v)
		prepare := func() *SpectralSearcher { sr, _ := attachedSearcher(e, v); return sr }
		check(fmt.Sprintf("TopKVector(#%d)", vi), prepare,
			func(k int) ([]Result, error) { return e.TopKVector(v, k) })
		check(fmt.Sprintf("TopKVectorWithAffinity(#%d)", vi), prepare,
			func(k int) ([]Result, error) {
				res, aff, err := e.TopKVectorWithAffinity(v, k)
				if err == nil && math.Float64bits(aff) != math.Float64bits(wantAff) {
					err = fmt.Errorf("affinity %g, the attachment's is %g", aff, wantAff)
				}
				return res, err
			})
	}
}

// TestSpectralSolvedHeadMatchesIteration is the differential test:
// {f64, F32, mapped} x {TopK, TopKVector, TopKSet across components,
// TopKSetWeighted with a negative weight, TopKVectorWithAffinity} x
// k in {1, 10, 100} x {fresh, live delta seeds and tombstones inside the
// queried component, compacted}, on a corpus where every head is solved
// and on three where the gate must decline: a well-connected blob that
// never closes, the solved corpus under a hop budget too small to pay for
// the solve, and 60-item components at alpha = 0.5, where the ~33 rounds
// the iteration owes cost less than the factorization.
func TestSpectralSolvedHeadMatchesIteration(t *testing.T) {
	corpora := pruneCorpora()
	clustered, blob := corpora[0], corpora[1]
	poor := clustered
	poor.name, poor.sopts.HopBudget = "budget-refused", 300
	// The oracle has to converge to be one: under the default budget a
	// three-component seed set runs the iteration out of traversals at
	// T ~ 1250 with 3e-6 of the mass still to go (the solve does not care).
	clustered.sopts.HopBudget = 1 << 22
	big := NewMixture(MixtureConfig{N: 1260, Classes: 21, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 74}).Points
	cheap := pruneCorpus{"rounds-cheaper", big[:1200:1200], big[1200:], Options{Seed: 74, Alpha: 0.5}, SpectralOptions{Rank: 24}}

	for _, tc := range []struct {
		pruneCorpus
		solved bool
	}{{clustered, true}, {blob, false}, {poor, false}, {cheap, false}} {
		for _, form := range []string{"f64", "f32", "mapped"} {
			t.Run(tc.name+"/"+form, func(t *testing.T) {
				t.Parallel()
				e := tc.engine(t, form)
				n := len(tc.base)
				q := n / 4
				checkAgainstIteration(t, e, "fresh", tc.pool, tc.solved, q)

				// The query item's nearest neighbours share its component: two
				// of them become tombstones (they keep conducting), and the
				// inserted points include copies of others, which attach into
				// it as live delta seeds.
				near, err := e.TopK(q, 6)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range tc.pool[:len(tc.pool)-8] {
					if _, err := e.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range near[3:] {
					if _, err := e.Insert(e.st.pointVec(r.Node)); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []int{near[1].Node, near[2].Node, 0, n - 1, n + 1} {
					if err := e.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				checkAgainstIteration(t, e, "delta", tc.pool[len(tc.pool)-8:], tc.solved, q)

				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
				checkAgainstIteration(t, e, "compacted", tc.pool[len(tc.pool)-8:], tc.solved, q)
			})
		}
	}
}

// TestSpectralGateDeclinesForTheStatedReason pins the two closed-ball
// refusals of the differential test to what their names say: the ball is
// closed (nothing outside it is adjacent to it), of the stated size, and
// the head still ends by iteration.
func TestSpectralGateDeclinesForTheStatedReason(t *testing.T) {
	closed := func(sr *SpectralSearcher) bool {
		S := sr.e.st.graph
		for _, j := range sr.touched {
			for x := S.RowPtr[j]; x < S.RowPtr[j+1]; x++ {
				if sr.hstamp[S.Col[x]] != sr.qepoch {
					return false
				}
			}
		}
		return true
	}
	cl := pruneCorpora()[0]
	cl.sopts.HopBudget = 300
	e := cl.engine(t, "f64")
	sr := seededSearcher(e, []int{375}, 1)
	if hops, ball := headOf(sr); hops == hopsConverged || !closed(sr) || ball > 40 {
		t.Fatalf("budget 300: horizon %d, ball %d, closed %v; want a small closed ball the budget cannot pay to solve", hops, ball, closed(sr))
	}

	big := NewMixture(MixtureConfig{N: 1200, Classes: 20, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 74}).Points
	e, err := BuildSpectral(big, Options{Seed: 74, Alpha: 0.5}, SpectralOptions{Rank: 24})
	if err != nil {
		t.Fatal(err)
	}
	sr = seededSearcher(e, []int{300}, 1)
	hops, ball := headOf(sr)
	if hops == hopsConverged || !closed(sr) || ball < 40 || ball > 90 {
		t.Fatalf("alpha 0.5: horizon %d, ball %d, closed %v; want a closed ball of about 60 left to ~33 rounds", hops, ball, closed(sr))
	}
	if hops < 30 || hops > 40 {
		t.Fatalf("alpha 0.5: %d rounds to 1e-10, want about 33", hops)
	}
	// The same ball at alpha = 0.99 owes ~2300 rounds and is solved.
	e, err = BuildSpectral(big, Options{Seed: 74}, SpectralOptions{Rank: 24})
	if err != nil {
		t.Fatal(err)
	}
	if hops, _ := headOf(seededSearcher(e, []int{300}, 1)); hops != hopsConverged {
		t.Fatalf("alpha 0.99 on the same corpus: horizon %d, want solved", hops)
	}
}

// TestSpectralSeedWeightScale: Manifold Ranking is linear in the seed
// weights, so scaling them scales the scores and moves no ranking. (The
// parent compared an absolute mass to the tolerance: at weight 1e-12
// every expansion stopped at the minimum horizon and the rank-r tail
// ordered the rest.) One corpus whose heads are solved and one whose
// components are too large for the solve, so the iterated path is the
// one under test; both precisions.
func TestSpectralSeedWeightScale(t *testing.T) {
	big := NewMixture(MixtureConfig{N: 1200, Classes: 8, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 75}).Points
	for _, c := range []pruneCorpus{
		pruneCorpora()[0],
		{"large-components", big, nil, Options{Seed: 75}, SpectralOptions{Rank: 24}},
	} {
		for _, form := range []string{"f64", "f32"} {
			e := c.engine(t, form)
			for _, id := range []int{1, len(c.base) / 2, len(c.base) - 2} {
				hops, ball := headOf(seededSearcher(e, []int{id}, 1))
				if solved := hops == hopsConverged; solved != (c.name == "clustered") {
					t.Fatalf("%s/%s: item %d's head ends at horizon %d over a ball of %d", c.name, form, id, hops, ball)
				}
				want, err := e.TopKSetWeighted([]int{id}, 1, 10)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []float64{1e-6, 1e-12} {
					got, err := e.TopKSetWeighted([]int{id}, w, 10)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i].Node != want[i].Node {
							t.Fatalf("%s/%s item %d weight %g: rank %d is item %d, weight 1 ranks %d there", c.name, form, id, w, i, got[i].Node, want[i].Node)
						}
						if d := math.Abs(got[i].Score/w - want[i].Score); !(d <= 1e-9*math.Abs(want[i].Score)) {
							t.Fatalf("%s/%s item %d weight %g: rank %d scores %g per unit weight, weight 1 scores %g", c.name, form, id, w, i, got[i].Score/w, want[i].Score)
						}
					}
				}
			}
		}
	}
}

// TestSpectralZeroTailFill pins what a converged head answers beyond its
// ball. Exact Manifold Ranking on this graph is zero outside a closed
// component, so the fill is the lowest live ids at score +0 — and the
// scan stops as soon as the collector holds k of them instead of taking
// a dot product with a zero vector off every row: the rows it scores are
// the live ball plus the fill, and the answer is the unpruned sweep's to
// the bit.
func TestSpectralZeroTailFill(t *testing.T) {
	c := pruneCorpora()[0]
	e := c.engine(t, "f64")
	for _, id := range []int{0, 3} { // the fill skips tombstones
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	live := e.Len()
	const q = 700
	sr := seededSearcher(e, []int{q}, 1)
	hops, ball := headOf(sr)
	if hops != hopsConverged {
		t.Fatalf("item %d's head is not solved (horizon %d, ball %d)", q, hops, ball)
	}
	inBall := make(map[int]bool, ball)
	for _, i := range sr.touched {
		inBall[i] = true
	}
	all := fullScanSeeds(e, []int{q}, 1, live)
	for _, k := range []int{ball + 1, 100, live + 5} {
		got, info, err := e.TopKWithInfo(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameAsFullScan(t, fmt.Sprintf("k=%d", k), got, fullScanSeeds(e, []int{q}, 1, k), all)
		if want := min(k, live); info.ScoresComputed != want {
			t.Fatalf("k=%d: %d rows scored, want the ball of %d plus the fill: %d", k, info.ScoresComputed, ball, want)
		}
		next := 0
		for i, r := range got[ball:] {
			for inBall[next] || !e.Alive(next) {
				next++
			}
			if r.Node != next || math.Float64bits(r.Score) != 0 {
				t.Fatalf("k=%d: fill %d is (%d, %g), want the next live id outside the ball, %d, at +0", k, i, r.Node, r.Score, next)
			}
			next++
		}
	}
	// A ball that already holds k enters no block at all.
	_, info, err := e.TopKWithInfo(q, ball)
	if err != nil {
		t.Fatal(err)
	}
	if info.ScoresComputed != ball || info.ClustersScanned != 0 {
		t.Fatalf("k = ball = %d: %+v, want the ball scored and no block entered", ball, info)
	}
}

// handBuilt returns a searcher over a real (tiny) engine whose base graph
// has been replaced by the given symmetric-pattern edge list over its n
// items: expandHops reads nothing of the state but the graph.
func handBuilt(t *testing.T, n int, alpha float64, budget int, edges map[[2]int]float64) *SpectralSearcher {
	t.Helper()
	pts := NewMixture(MixtureConfig{N: n, Classes: 2, Dim: 4, WithinStd: 0.3, Separation: 3.0, Seed: 76}).Points
	e, err := BuildSpectral(pts, Options{Seed: 76, Alpha: alpha}, SpectralOptions{Rank: 4, HopBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	var coords []sparse.Coord
	for ij, v := range edges {
		coords = append(coords, sparse.Coord{Row: ij[0], Col: ij[1], Val: v})
	}
	if e.st.graph, err = sparse.NewFromCoords(n, n, coords); err != nil {
		t.Fatal(err)
	}
	sr := e.NewSearcher()
	sr.ensure(e.st)
	return sr
}

// TestSpectralSolveOnHandBuiltGraphs is the white-box half: closure is
// detected exactly when the ball is closed, and a system that does not
// factor falls back to the loop without a trace.
func TestSpectralSolveOnHandBuiltGraphs(t *testing.T) {
	const alpha = 0.99
	// A path 0-1-...-7 (bipartite: the frontier alternates between the
	// even and the odd side and never settles) next to a triangle 8-9-10;
	// 11 is isolated. Normalized as the engine normalizes: w / sqrt(d_i d_j).
	deg := []float64{1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 0}
	edges := map[[2]int]float64{}
	link := func(i, j int) {
		w := 1 / math.Sqrt(deg[i]*deg[j])
		edges[[2]int{i, j}], edges[[2]int{j, i}] = w, w
	}
	for i := 0; i < 7; i++ {
		link(i, i+1)
	}
	link(8, 9)
	link(9, 10)
	link(8, 10)

	// The dense oracle: (I - alpha S)^-1 applied to the seeds, by LU.
	resolvent := func(n int, seeds []seedWeight) []float64 {
		a := dense.Identity(n)
		for ij, v := range edges {
			a.Add(ij[0], ij[1], -alpha*v)
		}
		b := make([]float64, n)
		for _, sw := range seeds {
			b[sw.id] = sw.w
		}
		x, err := dense.Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	for _, tc := range []struct {
		name  string
		seeds []seedWeight
		ball  []int
	}{
		{"path from its end", []seedWeight{{0, 1}}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"path from the middle, negative weight", []seedWeight{{3, -2}}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"two components at once", []seedWeight{{2, 0.5}, {9, 0.5}}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	} {
		sr := handBuilt(t, 12, alpha, 0, edges)
		if hops := sr.expandHops(tc.seeds); hops != hopsConverged {
			t.Fatalf("%s: horizon %d, want the ball solved", tc.name, hops)
		}
		got := append([]int(nil), sr.touched...)
		sort.Ints(got)
		if fmt.Sprint(got) != fmt.Sprint(tc.ball) {
			t.Fatalf("%s: ball %v, want %v", tc.name, got, tc.ball)
		}
		want := resolvent(12, tc.seeds)
		for _, i := range tc.ball {
			if d := math.Abs(sr.hop[i] - want[i]); !(d <= 1e-12*math.Abs(want[i])) {
				t.Fatalf("%s: item %d carries %g, the resolvent %g", tc.name, i, sr.hop[i], want[i])
			}
		}
	}

	// An isolated seed: the frontier dies in the first round, there is
	// nothing to solve, and the head is the parent's to the bit.
	sr, or := handBuilt(t, 12, alpha, 0, edges), handBuilt(t, 12, alpha, 0, edges)
	seeds := []seedWeight{{11, 0.7}}
	if got, want := sr.expandHops(seeds), iterateHops(or, seeds); got != want || got == hopsConverged {
		t.Fatalf("isolated seed: horizon %d, the iteration's is %d", got, want)
	}
	if len(sr.touched) != 1 || sr.hop[11] != 0.7 {
		t.Fatalf("isolated seed: ball %v carrying %g", sr.touched, sr.hop[11])
	}

	// Blocks Cholesky must refuse: a symmetric one with spectral radius 2
	// (I - alpha S is indefinite), and an asymmetric one whose lower
	// triangle is. The pivot fails, the loop carries on from where it
	// was, and the result is the iteration's to the bit — finite, since
	// the small budget stops the diverging series early.
	for name, bad := range map[string]map[[2]int]float64{
		"indefinite": {{0, 1}: 2, {1, 0}: 2, {1, 2}: 0.5, {2, 1}: 0.5},
		"asymmetric": {{0, 1}: 0.1, {1, 0}: 2, {1, 2}: 0.5, {2, 1}: 0.5},
	} {
		sr, or := handBuilt(t, 12, alpha, 40, bad), handBuilt(t, 12, alpha, 40, bad)
		seeds := []seedWeight{{0, 1}}
		got, want := sr.expandHops(seeds), iterateHops(or, seeds)
		if got != want || got == hopsConverged {
			t.Fatalf("%s block: horizon %d, the iteration's is %d", name, got, want)
		}
		for _, i := range or.touched {
			if math.Float64bits(sr.hop[i]) != math.Float64bits(or.hop[i]) || math.IsNaN(sr.hop[i]) || math.IsInf(sr.hop[i], 0) {
				t.Fatalf("%s block: item %d carries %g, the iteration %g", name, i, sr.hop[i], or.hop[i])
			}
		}
	}
}

// TestSpectralLargeFrontierOrder: a round whose next frontier is large
// re-reads it off the stamps instead of sorting it. On a well-connected
// corpus big enough for that to happen, the head is the sorting loop's
// to the bit.
func TestSpectralLargeFrontierOrder(t *testing.T) {
	pts := NewMixture(MixtureConfig{N: 3000, Classes: 3, Dim: 6, WithinStd: 1.0, Separation: 1.0, Seed: 77}).Points
	e, err := BuildSpectral(pts, Options{Seed: 77, GraphK: 10}, SpectralOptions{Rank: 8, HopBudget: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for q := 0; q < 5; q++ {
		id := rng.Intn(len(pts))
		sr, or := seededSearcher(e, []int{id}, 1), seededSearcher(e, []int{id}, 1)
		got, want := sr.expandHops(sr.baseSeeds), iterateHops(or, or.baseSeeds)
		if got != want || len(sr.touched) != len(or.touched) {
			t.Fatalf("item %d: horizon %d over %d items, the sorting loop %d over %d", id, got, len(sr.touched), want, len(or.touched))
		}
		if m := len(sr.curID); m*bits.Len(uint(m)) <= len(pts) {
			t.Fatalf("item %d: the last frontier, %d items, is not large enough to skip the sort", id, m)
		}
		for x, i := range or.touched {
			if sr.touched[x] != i || math.Float64bits(sr.hop[i]) != math.Float64bits(or.hop[i]) {
				t.Fatalf("item %d: ball entry %d is (%d, %g), the sorting loop has (%d, %g)", id, x, sr.touched[x], sr.hop[sr.touched[x]], i, or.hop[i])
			}
		}
	}
}
