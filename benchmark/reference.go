package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mogul"
)

// The reference load: why every gated timing is a ratio.
//
// The reference container is a few cores of a shared host, and the
// speed of those cores is not a constant: with nothing else running in
// the container, the same graph_id run reads lat_p50_ms 0.084 in one
// quarter of an hour and 0.14 in the next, the same graph_vec_d512 run
// flips between 0.33 and 0.53 for half a minute at a time, and ten
// seconds of it stay inside one such regime — so no statistic over one
// run's own samples, and no affordable run length, brings two runs of
// the same code within 10 % of each other (measured: median, mean, best
// half, best quartile and quietest block over 8, 16 and 32 rounds all
// spread 0.10–0.40 across consecutive runs when a regime changed).
//
// What does not change with the box is how long a request takes
// RELATIVE to other work done at the same moment. So the benchmark
// carries a frozen reference of its own — a handler on its own loopback
// listener that decodes the same request, scans a pinned number of rows
// of a fixed matrix for its ten largest dot products and encodes a
// reply of the same shape — and alternates 100 ms slices of the
// workload with 100 ms slices of that reference, driven by the same
// generator over the same HTTP client. Each pair gives one ratio
// (workload p50 / reference p50, workload completions per second /
// reference completions per second); the run reports the median ratio,
// scaled by the reference's pinned nominal reading so that it still
// reads in ms and 1/s. In the recorded regime changes this took the
// spread of consecutive runs from 0.26 to 0.07 (lat_p50_ms) and from
// 0.36 to 0.06 (qps_sat) on graph_vec_d512, and cost nothing on a quiet
// box (graph_id: 0.04 raw, 0.04 as a ratio).
//
// The reference is the benchmark's own code and never calls the
// repository, so a change to the repository moves the numerator only.
// Its rows are pinned per workload (spec.ref) so that one reference
// request costs about what one workload request costs: the two then
// share the same split between HTTP, runtime and arithmetic, which is
// what makes them slow down together.

const (
	refDim = 64
	// refSpan rows of refDim float64 are 8 MiB: twice the L2 of the
	// reference container, so long scans stream like the engines' do.
	refSpan = 1 << 14
)

// refData is the matrix the reference scans, from a fixed xorshift.
var refData = func() []float64 {
	d := make([]float64, refSpan*refDim)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = float64(x>>11)/float64(1<<53) - 0.5
	}
	return d
}()

type refHit struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

// refScan returns the topK largest dot products of q with the first
// rows rows of refData (wrapping around its span).
func refScan(q *[refDim]float64, rows int) (top [topK]refHit) {
	for i := range top {
		top[i].Score = -1e300
	}
	for row := 0; row < rows; row++ {
		o := (row & (refSpan - 1)) * refDim
		v := refData[o : o+refDim]
		var s0, s1 float64
		for j := 0; j < refDim; j += 2 {
			s0 += q[j] * v[j]
			s1 += q[j+1] * v[j+1]
		}
		s := s0 + s1
		if s > top[topK-1].Score {
			k := topK - 1
			for k > 0 && top[k-1].Score < s {
				top[k] = top[k-1]
				k--
			}
			top[k] = refHit{row, s}
		}
	}
	return top
}

// refHandler answers GET /ref?id= and POST /ref {"vector":[...]} the
// way serve answers /search and /search/vector, with refScan in the
// engine's place.
type refHandler struct{ rows int }

func (h refHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var q [refDim]float64
	if r.Method == http.MethodPost {
		var body struct {
			Vector []float64 `json:"vector"`
			K      int       `json:"k"`
		}
		data, err := io.ReadAll(r.Body)
		if err != nil || json.Unmarshal(data, &body) != nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		for i, v := range body.Vector {
			q[i%refDim] += v
		}
	} else {
		id := r.URL.Query().Get("id")
		for i := range q {
			q[i] = float64(len(id)+i) * 0.01
		}
	}
	top := refScan(&q, h.rows)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Query   int      `json:"query"`
		Answers []refHit `json:"answers"`
	}{0, top[:]})
}

// refScript turns a workload's read traffic into reference requests:
// same method, same query string, same body, another path.
type refScript struct{ inner script }

func (s refScript) next() request {
	for {
		rq := s.inner.next()
		if rq.op != opRead {
			continue
		}
		rq.path = "/ref" + strings.TrimPrefix(strings.TrimPrefix(rq.path, "/search/vector"), "/search")
		return rq
	}
}

func (s refScript) observe(_ request, body []byte) bool {
	return looksLikeAnswers(body)
}

// refScripts derives the reference traffic from the run's seed, apart
// from the workload's own scripts so that neither consumes the other's
// sequence.
func (sp *spec) refScripts(pts []mogul.Vector, seed int64, clients int) []script {
	reads, _ := sp.scripts(pts, seed+1_000_003, clients)
	out := make([]script, len(reads))
	for i, r := range reads {
		out[i] = refScript{r}
	}
	return out
}

const (
	// refBuildRows is what each of the two goroutines of refBuild scans
	// per chunk (about 25 ms); refBuildChunks chunks make one reading.
	refBuildRows   = 1 << 19
	refBuildChunks = 7
	// refBuildNominalS is what refBuild read on the reference container;
	// it only turns the set-up ratio back into seconds.
	refBuildNominalS = 0.0285
)

// refSink keeps refBuild's scans from being optimised away.
var refSink atomic.Int64

// refBuild is the reference set-up time is held against: the median
// wall time of a fixed scan on maxClients goroutines at once, the way a
// build keeps every core busy.
func refBuild() float64 {
	var q [refDim]float64
	for i := range q {
		q[i] = float64(i) * 0.01
	}
	chunks := make([]float64, refBuildChunks)
	for c := range chunks {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < maxClients(); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refSink.Add(int64(refScan(&q, refBuildRows)[0].Item))
			}()
		}
		wg.Wait()
		chunks[c] = time.Since(t0).Seconds()
	}
	return median(chunks)
}
