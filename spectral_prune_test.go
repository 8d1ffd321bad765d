package mogul

// The spectral engine's bound-and-prune scan (collect in spectral.go)
// against the loop it replaced. fullScanCollect below is that loop, kept
// verbatim as the oracle — the only unconditional O(n*r) sweep left in
// the tree — and the differential test holds every query entry point to
// it over three corpora, three storage forms and three lifecycle stages.
// The contract: the score sequence is the full scan's to the bit; ids
// match except among items tied exactly at the k-th score, where the
// order of offers (hop ball first) may keep a different one of the tied
// items — and even there every returned pair is a true (id, score) pair.

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// fullScanCollect is collect as it was before pruning: expand the hops,
// derive the tail coefficients, then offer every live row in id order.
// The searcher must be prepared (sr.b filled, seeds split).
func fullScanCollect(sr *SpectralSearcher, k int) []Result {
	e := sr.e
	st := e.st
	r := st.rank
	hops := sr.expandHops(sr.baseSeeds)
	for j := 0; j < r; j++ {
		sr.coeff[j] = tailCoefficient(e.alpha, st.vals[j], hops) * sr.b[j]
	}
	n := st.numPoints()
	sr.resetCollector(k)
	for i := 0; i < st.baseN; i++ {
		if st.dead[i] {
			continue
		}
		sum := st.emb.Dot(i, sr.coeff)
		if sr.hstamp[i] == sr.qepoch {
			sum += sr.hop[i]
		}
		sr.col.Offer(i, (1-e.alpha)*sum)
	}
	si := 0
	for i := st.baseN; i < n; i++ {
		if si < len(sr.deltaSelf) && sr.deltaSelf[si].id < i {
			si++
		}
		if st.dead[i] {
			continue
		}
		sum := st.emb.Dot(i, sr.coeff)
		d := i - st.baseN
		for t := st.attPtr[d]; t < st.attPtr[d+1]; t++ {
			if id := st.attID[t]; sr.hstamp[id] == sr.qepoch {
				sum += st.attW[t] * sr.hop[id]
			}
		}
		if si < len(sr.deltaSelf) && sr.deltaSelf[si].id == i {
			sum += sr.deltaSelf[si].w
		}
		sr.col.Offer(i, (1-e.alpha)*sum)
	}
	return sr.results()
}

// fullScanSeeds prepares a fresh searcher the way searcher.topKSeeds and
// scoreSeeds do, then runs the full scan.
func fullScanSeeds(e *SpectralIndex, seeds []int, weight float64, k int) []Result {
	sr := e.NewSearcher()
	st := e.st
	for _, id := range seeds {
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: weight})
	}
	sr.seeds = normalizeSeeds(sr.seeds)
	sr.ensure(st)
	for _, sw := range sr.seeds {
		st.emb.Axpy(sr.b, sw.w, sw.id)
	}
	sr.splitSeeds(sr.seeds)
	return fullScanCollect(sr, k)
}

// fullScanVector is scoreVector's preparation followed by the full scan.
func fullScanVector(e *SpectralIndex, q Vector, k int) ([]Result, float64) {
	sr := e.NewSearcher()
	st := e.st
	sr.ensure(st)
	m, mass := sr.att.attachLive(st, e.sopts.AttachK, q, false)
	for t := 0; t < m; t++ {
		id, w := sr.att.nbrID[t], sr.att.nbrW[t]
		st.emb.Axpy(sr.b, w, id)
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: w})
	}
	sr.seeds = normalizeSeeds(sr.seeds)
	sr.splitSeeds(sr.seeds)
	return fullScanCollect(sr, k), mass
}

// sameAsFullScan holds got to want (the full scan at the same k) under
// the contract above; all is the full scan at k = live, i.e. every live
// item's score.
func sameAsFullScan(t *testing.T, label string, got, want, all []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, full scan returns %d", label, len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	score := make(map[int]uint64, len(all))
	for _, r := range all {
		score[r.Node] = math.Float64bits(r.Score)
	}
	kth := math.Float64bits(want[len(want)-1].Score)
	seen := make(map[int]bool, len(got))
	for i := range want {
		bits := math.Float64bits(got[i].Score)
		if bits != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d scores %x (%g), full scan %x (%g)", label, i, bits, got[i].Score, math.Float64bits(want[i].Score), want[i].Score)
		}
		if got[i].Node != want[i].Node && bits != kth {
			t.Fatalf("%s: rank %d is item %d, full scan has %d (no tie at the k-th score)", label, i, got[i].Node, want[i].Node)
		}
		if s, ok := score[got[i].Node]; !ok || s != bits || seen[got[i].Node] {
			t.Fatalf("%s: rank %d pairs item %d with a score that is not its own (or repeats it)", label, i, got[i].Node)
		}
		seen[got[i].Node] = true
	}
}

// pruneCorpus is one fixture of the differential test: base points to
// build from, a pool of held-out vectors to insert and to query with,
// and the recipe.
type pruneCorpus struct {
	name       string
	base, pool []Vector
	opts       Options
	sopts      SpectralOptions
}

func pruneCorpora() []pruneCorpus {
	// Clustered like the benchmark's spectral_id corpus: many small
	// well-separated classes, so the hop ball is a handful of items and
	// nearly everything else is prunable.
	cl := NewMixture(MixtureConfig{N: 1560, Classes: 130, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 71}).Points
	// Well connected: four overlapping blobs on a k = 10 graph — the hop
	// ball covers most of the corpus and there is little left to prune.
	bl := NewMixture(MixtureConfig{N: 1260, Classes: 4, Dim: 8, WithinStd: 1.0, Separation: 1.5, Seed: 72}).Points
	// Exact duplicates: every base point appears twice (zero distances in
	// the graph, tied scores in the answers).
	half := NewMixture(MixtureConfig{N: 460, Classes: 40, Dim: 6, WithinStd: 0.3, Separation: 3.0, Seed: 73}).Points
	var du []Vector
	for _, p := range half[:400] {
		du = append(du, p, append(Vector(nil), p...))
	}
	// An engine keeps the base slice it is built from and appends to it,
	// so each base is clipped: the cells run in parallel and must not grow
	// into the pool they share. (The blob's hop budget and the duplicates'
	// alpha are turned down from the defaults only to keep the expansions
	// — which the scan under test does not contain — cheap under the race
	// detector.)
	return []pruneCorpus{
		{"clustered", cl[:1500:1500], cl[1500:], Options{Seed: 71}, SpectralOptions{Rank: 32}},
		{"blob", bl[:1200:1200], bl[1200:], Options{Seed: 72, GraphK: 10}, SpectralOptions{Rank: 32, HopBudget: 1 << 16}},
		{"duplicates", du[:len(du):len(du)], half[400:], Options{Seed: 73, Alpha: 0.9}, SpectralOptions{Rank: 24, AttachK: 6}},
	}
}

// engine builds the corpus in one of the three storage forms: f64, F32,
// or an aligned f64 save served out of a mapped file.
func (c pruneCorpus) engine(t *testing.T, form string) *SpectralIndex {
	t.Helper()
	opts := c.opts
	if form == "f32" {
		opts.Precision = F32
	}
	e, err := BuildSpectral(c.base, opts, c.sopts)
	if err != nil {
		t.Fatal(err)
	}
	if form != "mapped" {
		return e
	}
	path := filepath.Join(t.TempDir(), "spectral.idx")
	if err := e.SaveFileAligned(path, 4096); err != nil {
		t.Fatal(err)
	}
	r, closer, err := LoadFileMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	return r.(*SpectralIndex)
}

// checkAgainstFullScan runs every query entry point over a spread of
// queries and k against the full scan. The hop expansion, not the scan,
// is what each call costs (thousands of Neumann rounds on a small
// component at alpha = 0.99), so the full scan runs once per query at
// k = live, and again at a smaller k only when the k-th and (k+1)-th of
// those scores tie: otherwise the k best are a unique set in a fixed
// order, and the old loop at k returns exactly that prefix.
func checkAgainstFullScan(t *testing.T, e *SpectralIndex, stage string, pool []Vector) {
	t.Helper()
	var liveIDs []int
	for id := 0; id < e.IDSpace(); id++ {
		if e.Alive(id) {
			liveIDs = append(liveIDs, id)
		}
	}
	live := len(liveIDs)
	ks := []int{1, 10, 100, live + 5}
	check := func(label string, all []Result, got func(k int) ([]Result, error), want func(k int) []Result) {
		t.Helper()
		for _, k := range ks {
			res, err := got(k)
			if err != nil {
				t.Fatalf("%s %s k=%d: %v", stage, label, k, err)
			}
			ref := all
			if k < live {
				ref = all[:k]
				if all[k-1].Score == all[k].Score {
					ref = want(k)
				}
			}
			sameAsFullScan(t, fmt.Sprintf("%s %s k=%d", stage, label, k), res, ref, all)
		}
	}

	// First, middle and last live ids: the last is a delta item whenever
	// the stage has any.
	for _, q := range []int{liveIDs[0], liveIDs[live/2], liveIDs[live-1]} {
		check(fmt.Sprintf("TopK(%d)", q), fullScanSeeds(e, []int{q}, 1, live),
			func(k int) ([]Result, error) { return e.TopK(q, k) },
			func(k int) []Result { return fullScanSeeds(e, []int{q}, 1, k) })
	}
	for _, set := range [][]int{
		{liveIDs[1], liveIDs[live/3], liveIDs[live-1]},
		{liveIDs[live-3], liveIDs[7], liveIDs[live-3], liveIDs[live/4]},
	} {
		w := 1 / float64(len(set))
		check(fmt.Sprintf("TopKSet(%v)", set), fullScanSeeds(e, set, w, live),
			func(k int) ([]Result, error) { return e.TopKSet(set, k) },
			func(k int) []Result { return fullScanSeeds(e, set, w, k) })
		// A negative weight turns the whole ranking upside down: the
		// threshold the hop ball sets is then the worst, not the best.
		check(fmt.Sprintf("TopKSetWeighted(%v, -0.5)", set), fullScanSeeds(e, set, -0.5, live),
			func(k int) ([]Result, error) { return e.TopKSetWeighted(set, -0.5, k) },
			func(k int) []Result { return fullScanSeeds(e, set, -0.5, k) })
	}
	for vi, v := range []Vector{pool[0], e.st.pointVec(liveIDs[live/5])} {
		all, wantAff := fullScanVector(e, v, live)
		want := func(k int) []Result { res, _ := fullScanVector(e, v, k); return res }
		check(fmt.Sprintf("TopKVector(#%d)", vi), all,
			func(k int) ([]Result, error) { return e.TopKVector(v, k) }, want)
		check(fmt.Sprintf("TopKVectorWithAffinity(#%d)", vi), all,
			func(k int) ([]Result, error) {
				res, aff, err := e.TopKVectorWithAffinity(v, k)
				if err == nil && math.Float64bits(aff) != math.Float64bits(wantAff) {
					err = fmt.Errorf("affinity %g, the attachment's is %g", aff, wantAff)
				}
				return res, err
			}, want)
	}
}

// TestSpectralPrunedMatchesFullScan is the differential test: {f64, F32,
// mapped} x {TopK, TopKVector, TopKSet, TopKSetWeighted with a negative
// weight, TopKVectorWithAffinity} x k in {1, 10, 100, live+5} x {fresh,
// live delta seeds and tombstones, compacted} on the three corpora.
func TestSpectralPrunedMatchesFullScan(t *testing.T) {
	for _, c := range pruneCorpora() {
		for _, form := range []string{"f64", "f32", "mapped"} {
			t.Run(c.name+"/"+form, func(t *testing.T) {
				t.Parallel() // the cells share nothing; most of each is hop expansion
				e := c.engine(t, form)
				checkAgainstFullScan(t, e, "fresh", c.pool)

				n := len(c.base)
				for _, p := range c.pool[:len(c.pool)-8] {
					if _, err := e.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				// Tombstones in the base (one whole early block's worth of
				// neighbours stays live around them) and in the delta.
				for _, id := range []int{0, 5, 64, n / 2, n - 1, n + 1, n + 7} {
					if err := e.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				checkAgainstFullScan(t, e, "delta", c.pool[len(c.pool)-8:])

				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
				checkAgainstFullScan(t, e, "compacted", c.pool[len(c.pool)-8:])
			})
		}
	}
}

// TestSpectralPruneBoundDominates is the white-box half: the bound the
// scan prunes by is never below the score the scan would compute, for
// coefficient vectors parallel to a row (Cauchy-Schwarz attained, so
// only the slack keeps the bound on the right side of the rounding) at
// magnitudes from deep underflow to near overflow, in both precisions —
// and through collect itself the attained row is returned, not pruned.
func TestSpectralPruneBoundDominates(t *testing.T) {
	c := pruneCorpora()[0]
	for _, form := range []string{"f64", "f32"} {
		e := c.engine(t, form)
		st := e.st
		r := st.rank
		scale := 1 - e.alpha
		// The longest row attains the largest score against itself, so it
		// is the top answer whenever coeff is parallel to it.
		longest := 0
		for i, nrm := range st.embNorm {
			if nrm > st.embNorm[longest] {
				longest = i
			}
		}
		row := make([]float64, r)
		coeff := make([]float64, r)
		for _, target := range []int{0, 63, 64, longest, st.baseN - 1} {
			clear(row)
			st.emb.Axpy(row, 1, target)
			for _, mag := range []float64{1, -3.7, 1e-160, 1e-300, 1e150} {
				for j := range coeff {
					coeff[j] = mag * row[j]
				}
				_, reach := pruneReach(scale, coeff)
				for i := 0; i < st.baseN; i++ {
					bound := reach*st.embNorm[i] + pruneAbsSlack
					if score := math.Abs(scale * st.emb.Dot(i, coeff)); !(bound >= score) {
						t.Fatalf("%s: coeff = %g * row %d: row %d scores %g above its bound %g", form, mag, target, i, score, bound)
					}
				}
				// The bound is tight where it should be: within the slack of
				// the attained score (at the extreme magnitudes normBound
				// falls back to looser, still valid, bounds).
				if math.Abs(mag) >= 1 && math.Abs(mag) <= 10 {
					attained := math.Abs(scale * st.emb.Dot(target, coeff))
					if bound := reach*st.embNorm[target] + pruneAbsSlack; bound > attained*(1+1e-8) {
						t.Fatalf("%s: coeff = %g * row %d: bound %g is loose against the attained %g", form, mag, target, bound, attained)
					}
				}
			}
		}

		// Through the scan: with no seeds the hop ball is empty and T = 1,
		// so b[j] = row[j] / g_j makes coeff parallel to the row (to within
		// an ulp per element).
		for _, k := range []int{1, 3} {
			prepare := func() *SpectralSearcher {
				sr := e.NewSearcher()
				sr.ensure(st)
				sr.splitSeeds(nil)
				clear(row)
				st.emb.Axpy(row, 1, longest)
				for j := range sr.b {
					sr.b[j] = row[j] / tailCoefficient(e.alpha, st.vals[j], 1)
				}
				return sr
			}
			got, want := prepare().collect(k), fullScanCollect(prepare(), k)
			sameAsFullScan(t, fmt.Sprintf("%s tight bound k=%d", form, k), got, want, fullScanCollect(prepare(), st.live()))
			if got[0].Node != longest {
				t.Fatalf("%s: the attained row %d was not returned first: %+v", form, longest, got)
			}
		}
	}
}

// TestSpectralPruneWorkCounters pins both ends of the regime: on the
// clustered fixture a k = 10 query evaluates a few percent of the rows
// at most, and a query for at least every live item is the full scan.
func TestSpectralPruneWorkCounters(t *testing.T) {
	c := pruneCorpora()[0]
	e := c.engine(t, "f64")
	for _, p := range c.pool[:20] {
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Delete(9); err != nil {
		t.Fatal(err)
	}
	live := e.Len()
	blocks := (len(c.base) + spectralBlock - 1) / spectralBlock
	scored := 0
	queries := []int{3, 400, 801, 1203, 1499, 1510}
	for _, q := range queries {
		_, info, err := e.TopKWithInfo(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if info.ClustersScanned+info.ClustersPruned != blocks {
			t.Fatalf("query %d: %d blocks entered + %d skipped, want %d in all", q, info.ClustersScanned, info.ClustersPruned, blocks)
		}
		scored += info.ScoresComputed
	}
	if mean := float64(scored) / float64(len(queries)); mean > 0.05*float64(live) {
		t.Fatalf("k=10 on the clustered fixture scores %.1f rows per query, want at most 5%% of %d", mean, live)
	}
	for _, k := range []int{live, live + 5} {
		_, info, err := e.TopKWithInfo(3, k)
		if err != nil {
			t.Fatal(err)
		}
		if info.ScoresComputed != live || info.ClustersPruned != 0 {
			t.Fatalf("k=%d of %d live: %+v, want every live row scored and no block skipped", k, live, info)
		}
	}
}
