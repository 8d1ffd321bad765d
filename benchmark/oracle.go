package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mogul"
)

// Correctness gate and quality oracle.
//
// Correct means: what came back over HTTP is bit-for-bit what the same
// call returns when made directly on the engine (ids and float64
// scores — Go's JSON float encoding round-trips exactly). Quality is
// recall@10 against exact Manifold Ranking: MogulE (complete
// factorization) over the brute-force k-NN graph of the same corpus,
// the paper's P@k reference.

// wireAnswers is the part of a search reply the checks read.
type wireAnswers struct {
	Answers []struct {
		Item  int     `json:"item"`
		Score float64 `json:"score"`
	} `json:"answers"`
}

// looksLikeAnswers is the cheap in-phase shape check; the bit-exact
// comparison runs after the phase on the retained replies.
func looksLikeAnswers(body []byte) bool {
	return bytes.HasPrefix(body, []byte(`{"query":`)) && bytes.Contains(body, []byte(`"answers":[{"item":`))
}

// direct runs a pool or scripted query straight on the engine.
func direct(e mogul.Retriever, q query) ([]mogul.Result, error) {
	if q.vec != nil {
		return e.TopKVector(q.vec, topK)
	}
	return e.TopK(q.id, topK)
}

// sameAnswers reports whether a reply body carries exactly want.
func sameAnswers(body []byte, want []mogul.Result) bool {
	var got wireAnswers
	if json.Unmarshal(body, &got) != nil || len(got.Answers) != len(want) {
		return false
	}
	for i, a := range got.Answers {
		if a.Item != want[i].Node || math.Float64bits(a.Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// mismatches compares retained replies with direct engine calls. Only
// valid while the engine still is in the state that served them.
func mismatches(e mogul.Retriever, replies []kept) int {
	bad := 0
	for _, k := range replies {
		want, err := direct(e, k.req.q)
		if err != nil || !sameAnswers(k.body, want) {
			bad++
		}
	}
	return bad
}

// verify replays the pool over HTTP and directly on the engine. It
// returns the served top-k ids per query (for recall) and how many
// replies differed.
func verify(hc *http.Client, st *stack, pool []query) (served [][]int, bad int) {
	var buf bytes.Buffer
	served = make([][]int, len(pool))
	for i, q := range pool {
		status, _ := do(hc, st.url, q.request(), &buf, nil, 0)
		want, err := direct(st.engine, q)
		if status != http.StatusOK || err != nil || !sameAnswers(buf.Bytes(), want) {
			bad++
			continue
		}
		for _, r := range want {
			served[i] = append(served[i], r.Node)
		}
	}
	return served, bad
}

// golden is the committed exact top-10 of a workload's pool.
type golden struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	// Corpus fingerprints the points the oracle ranked, so a golden
	// can never be applied to a different corpus or pool silently.
	Corpus string  `json:"corpus"`
	Top    [][]int `json:"top10"`
}

func goldenPath(name string) string { return filepath.Join("testdata", "oracle", name+".json") }

// fingerprint hashes the corpus and the pool.
func fingerprint(pts []mogul.Vector, pool []query) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v mogul.Vector) {
		for _, x := range v {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, p := range pts {
		put(p)
	}
	for _, q := range pool {
		put(q.vec)
		fmt.Fprint(h, q.id)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// exactTop ranks the pool with exact Manifold Ranking.
func exactTop(pts []mogul.Vector, pool []query) ([][]int, error) {
	exact, err := mogul.Build(pts, mogul.Options{Exact: true})
	if err != nil {
		return nil, fmt.Errorf("building the exact oracle: %w", err)
	}
	top := make([][]int, len(pool))
	for i, q := range pool {
		res, err := direct(exact, q)
		if err != nil {
			return nil, fmt.Errorf("oracle query %d: %w", i, err)
		}
		for _, r := range res {
			top[i] = append(top[i], r.Node)
		}
	}
	return top, nil
}

// oracle returns the exact top-10 lists for the pool: the committed
// golden when it matches this corpus, else computed now. oracleS is
// the time spent computing (0 with a golden); it is never part of
// setup_s.
func (sp *spec) oracle(pts []mogul.Vector, pool []query) (top [][]int, oracleS float64, err error) {
	fp := fingerprint(pts, pool)
	if data, rerr := os.ReadFile(goldenPath(sp.name)); rerr == nil {
		var g golden
		if json.Unmarshal(data, &g) == nil && g.Corpus == fp && len(g.Top) == len(pool) {
			return g.Top, 0, nil
		}
	}
	t0 := time.Now()
	top, err = exactTop(pts, pool)
	return top, time.Since(t0).Seconds(), err
}

// regenOracle rebuilds a workload's committed golden.
func (sp *spec) regenOracle() error {
	pts := sp.corpus(sp.n)
	pool := sp.pool(pts)
	top, err := exactTop(pts, pool)
	if err != nil {
		return err
	}
	// One ranking per line keeps the committed file reviewable.
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n \"workload\": %q,\n \"n\": %d,\n \"corpus\": %q,\n \"top10\": [\n", sp.name, sp.n, fingerprint(pts, pool))
	for i, row := range top {
		line, err := json.Marshal(row)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(top)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s%s\n", line, sep)
	}
	b.WriteString(" ]\n}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath(sp.name)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(sp.name), b.Bytes(), 0o644)
}

// recallAt10 is the mean overlap of served and exact top-10 sets.
func recallAt10(served, exact [][]int) float64 {
	var sum float64
	for i, want := range exact {
		in := make(map[int]bool, len(want))
		for _, id := range want {
			in[id] = true
		}
		hits := 0
		for _, id := range served[i] {
			if in[id] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(want))
	}
	return sum / float64(len(exact))
}
