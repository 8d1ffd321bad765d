package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"

	"mogul"
	"mogul/internal/jsonwire"
)

// The retired encoding/json rendering of a search reply, kept as the
// oracle the reply writer is held to (as fullScanCollect and iterateHops
// are for the spectral scan): searchResponse and toAnswers are what
// answer and cacheSet marshalled until the writer replaced them,
// batchReplyJSON what /search/batch did.

type searchResponse struct {
	Query    interface{}     `json:"query"`
	K        int             `json:"k"`
	TookUS   int64           `json:"took_us"`
	Answers  json.RawMessage `json:"answers"`
	Exact    bool            `json:"exact"`
	Cached   bool            `json:"cached,omitempty"`
	Pruned   int             `json:"clusters_pruned,omitempty"`
	Scanned  int             `json:"clusters_scanned,omitempty"`
	Computed int             `json:"scores_computed,omitempty"`
}

func toAnswers(res []mogul.Result, labels []int) []Answer {
	out := make([]Answer, len(res))
	for i, r := range res {
		out[i] = Answer{Item: r.Node, Score: r.Score}
		if r.Node >= 0 && r.Node < len(labels) {
			l := labels[r.Node]
			out[i].Label = &l
		}
	}
	return out
}

// searchReplyJSON renders rows and envelope the retired way: Marshal
// into the RawMessage, Encoder.Encode around it.
func searchReplyJSON(q query, tookUS int64, res []mogul.Result, labels []int, info mogul.SearchInfo, exact, cached bool) (rows, reply []byte, err error) {
	rows, err = json.Marshal(toAnswers(res, labels))
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(searchResponse{
		Query: q.echo, K: q.k, TookUS: tookUS, Answers: rows, Exact: exact, Cached: cached,
		Pruned: info.ClustersPruned, Scanned: info.ClustersScanned, Computed: info.ScoresComputed,
	})
	return rows, buf.Bytes(), err
}

func batchReplyJSON(k int, tookUS int64, batch []mogul.BatchResult, labels []int) ([]byte, error) {
	type batchEntry struct {
		Query   int      `json:"query"`
		Answers []Answer `json:"answers,omitempty"`
		Error   string   `json:"error,omitempty"`
	}
	entries := make([]batchEntry, len(batch))
	for i, br := range batch {
		entries[i] = batchEntry{Query: br.Query}
		if br.Err != nil {
			entries[i].Error = br.Err.Error()
			continue
		}
		entries[i].Answers = toAnswers(br.Results, labels)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]interface{}{"k": k, "took_us": tookUS, "results": entries})
	return buf.Bytes(), err
}

// replyRows packs (id, score) pairs the way FuzzWriteSearchReply unpacks
// them: 16 bytes a row, the id then the score's Float64bits.
func replyRows(ids []int, scores []float64) []byte {
	var b []byte
	for i, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scores[i%len(scores)]))
	}
	return b
}

// The seed values: every float regime the encoder distinguishes — both
// zeros, subnormals, each side of the 1e-6 and 1e21 format cutoffs, one-
// and two-digit negative exponents, the extremes — and ids on each side
// of the label table (replySeedLabels long), of zero and of 2^31.
var (
	replySeedScores = []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), -9.99e-7, 1e-7, 1.5e-10, -3e-9, 1.234e-100,
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e100,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 0.98765432101234, 1, -1, 123456789, 0.000123,
	}
	replySeedIDs = []int{0, 1, 5, 7, 8, 299, -1, math.MinInt64, 1 << 31, 1<<31 + 1, math.MaxInt64}
)

const replySeedLabels = 8

// Envelope echo kinds, selected by the fuzzer's kind byte.
const (
	echoInt = iota
	echoVector
	echoNilIDs
	echoNoIDs
	echoOneID
	echoManyIDs
	echoKinds
)

func replyEcho(kind uint8, id int, ids []int) interface{} {
	switch kind % echoKinds {
	case echoInt:
		return id
	case echoVector:
		return "vector"
	case echoNilIDs:
		return []int(nil)
	case echoNoIDs:
		return []int{}
	case echoOneID:
		return []int{id}
	default:
		return append([]int{id}, ids...)
	}
}

// checkReplyAgainstJSON is the differential contract, encoding/json the
// oracle: the rows, the search envelope around them and the batch reply
// are the retired rendering's bytes, a score read back from them is the
// score bit for bit, and a result encoding/json refuses (a non-finite
// score) is refused by appendRows too, leaving its buffer as it was.
func checkReplyAgainstJSON(t *testing.T, rows []byte, nLabels uint16, kind uint8, id, k, took int64, flags uint8, pruned, scanned, computed int64, errMsg string) {
	res := make([]mogul.Result, len(rows)/16)
	ids := make([]int, len(res))
	for i := range res {
		ids[i] = int(binary.LittleEndian.Uint64(rows[16*i:]))
		res[i] = mogul.Result{Node: ids[i], Score: math.Float64frombits(binary.LittleEndian.Uint64(rows[16*i+8:]))}
	}
	var labels []int
	if nLabels > 0 {
		labels = make([]int, nLabels)
		for i := range labels {
			labels[i] = (i - 2) * 1234567
		}
	}
	q := query{echo: replyEcho(kind, int(id), ids), k: int(k)}
	info := mogul.SearchInfo{ClustersPruned: int(pruned), ClustersScanned: int(scanned), ScoresComputed: int(computed)}
	exact, cached := flags&1 != 0, flags&2 != 0

	const prefix = "already here"
	got, err := appendRows([]byte(prefix), res, labels)
	wantRows, wantReply, wantErr := searchReplyJSON(q, took, res, labels, info, exact, cached)
	if wantErr != nil {
		if !errors.Is(err, errNonFiniteScore) || string(got) != prefix {
			t.Fatalf("encoding/json refuses the rows (%v); appendRows returned %q, %v", wantErr, got, err)
		}
	} else {
		if err != nil {
			t.Fatalf("appendRows refused rows encoding/json renders: %v", err)
		}
		gotRows := got[len(prefix):]
		if string(got[:len(prefix)]) != prefix || !bytes.Equal(gotRows, wantRows) {
			t.Fatalf("rows:\n got %s\nwant %s%s", got, prefix, wantRows)
		}
		reply := appendSearchReply(nil, q, took, cacheEntry{answers: gotRows, info: info}, exact, cached)
		if !bytes.Equal(reply, wantReply) {
			t.Fatalf("search reply:\n got %s\nwant %s", reply, wantReply)
		}
		var back struct {
			Answers []Answer `json:"answers"`
		}
		if err := json.Unmarshal(reply, &back); err != nil || len(back.Answers) != len(res) {
			t.Fatalf("reply reads back as %d rows of %d: %v", len(back.Answers), len(res), err)
		}
		for i, a := range back.Answers {
			if a.Item != res[i].Node || math.Float64bits(a.Score) != math.Float64bits(res[i].Score) {
				t.Fatalf("row %d: (%d, %x) came back (%d, %x)", i, res[i].Node, math.Float64bits(res[i].Score), a.Item, math.Float64bits(a.Score))
			}
		}
	}

	// The batch reply: rows between a failed entry and an empty one, so
	// every separator is exercised. A result the rows writer refuses is,
	// by definition, that entry's error.
	if errMsg == "" {
		errMsg = "omitempty would drop an empty message"
	}
	batch := []mogul.BatchResult{
		{Query: int(id), Results: res},
		{Query: 1, Err: errors.New(errMsg)},
		{Query: 2},
		{Query: 3, Results: res},
	}
	oracle := append([]mogul.BatchResult(nil), batch...)
	if err != nil {
		oracle[0] = mogul.BatchResult{Query: int(id), Err: err}
		oracle[3] = mogul.BatchResult{Query: 3, Err: err}
	}
	wantBatch, wantErr := batchReplyJSON(int(k), took, oracle, labels)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	if gotBatch := appendBatchReply(nil, int(k), took, batch, labels); !bytes.Equal(gotBatch, wantBatch) {
		t.Fatalf("batch reply:\n got %s\nwant %s", gotBatch, wantBatch)
	}
}

func FuzzWriteSearchReply(f *testing.F) {
	// Every echo kind x cached on/off x each zero/non-zero combination of
	// the three work counters, over rows that rotate through the seed
	// scores and ids; labelled, unlabelled and half-labelled tables.
	n := 0
	for kind := uint8(0); kind < echoKinds; kind++ {
		for flags := uint8(0); flags < 4; flags++ {
			for counters := 0; counters < 8; counters++ {
				ids := make([]int, n%5)
				for i := range ids {
					ids[i] = replySeedIDs[(n+i)%len(replySeedIDs)]
				}
				f.Add(replyRows(ids, replySeedScores[n%len(replySeedScores):]), uint16(n%3*replySeedLabels/2),
					kind, int64(replySeedIDs[n%len(replySeedIDs)]), int64(n), int64(n*37), flags,
					int64(counters&1*113), int64(counters&2*7), int64(counters&4*1800), "")
				n++
			}
		}
	}
	// Every seed score and id in one reply, each way the table can cover
	// them.
	all := replyRows(append(replySeedIDs, replySeedIDs...), replySeedScores)
	for _, nLabels := range []uint16{0, 1, replySeedLabels, 300} {
		f.Add(all, nLabels, uint8(echoManyIDs), int64(17), int64(MaxK), int64(math.MaxInt64), uint8(3), int64(1), int64(2), int64(3),
			"mogul: query id 999 out of range [0, 300) <&> \"quoted\"   \xff")
	}
	// What JSON cannot carry.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(replyRows([]int{3, 4, 5}, []float64{0.5, bad, 0.25}), uint16(replySeedLabels), uint8(echoInt), int64(3), int64(3), int64(9), uint8(0), int64(0), int64(0), int64(0), "x")
	}
	f.Fuzz(checkReplyAgainstJSON)
}

// TestReplyDeclaresItsLength: a rendered reply carries Content-Length
// however large it is — past net/http's 2 KiB buffer it used to leave
// chunked — and the connection is reused for the next request.
func TestReplyDeclaresItsLength(t *testing.T) {
	idx, _ := testIndex(t)
	s := New(idx, Options{})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	reused := false
	trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodGet, "/search?id=0&k=100", ""},
		{http.MethodPost, "/search/batch", `{"ids":[0,1,2,3,4,5,6,7],"k":20}`},
		{http.MethodGet, "/search?id=0&k=3", ""},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", tc.path, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: %d-byte reply declared Content-Length %d, Transfer-Encoding %v",
				tc.path, len(body), resp.ContentLength, resp.TransferEncoding)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", tc.path, ct)
		}
	}
	if !reused {
		t.Fatal("the connection was not reused after a reply of declared length")
	}
}

// TestLatencyHistogramResolvesMicroseconds: a cache hit is 1-5 us in the
// handler, so the histogram's first buckets sit there and not at 50 us,
// where every request of a cached workload shared one bin.
func TestLatencyHistogramResolvesMicroseconds(t *testing.T) {
	s, _ := testServer(t)
	doJSON(t, s, http.MethodGet, "/search?id=5&k=4", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, le := range []string{"5e-06", "1e-05", "2.5e-05", "5e-05"} {
		if want := fmt.Sprintf(`mogul_request_duration_seconds_bucket{endpoint="search",le=%q}`, le); !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestLargeReplyBufferNotPooled: a reply buffer that grew past
// jsonwire.MaxPooled is not parked in the reply pool
// (TestLargeBodyBufferNotPooled explains why the Get below sees what the
// Put before it left).
func TestLargeReplyBufferNotPooled(t *testing.T) {
	buf := jsonwire.GetBuf()
	jsonwire.WriteReply(httptest.NewRecorder(), buf, append(*buf, make([]byte, 2*jsonwire.MaxPooled)...))
	next := jsonwire.GetBuf()
	defer jsonwire.PutBuf(next, *next)
	if cap(*next) > jsonwire.MaxPooled {
		t.Fatalf("pooled reply buffer has capacity %d, past the %d-byte bound", cap(*next), jsonwire.MaxPooled)
	}
}

// TestNonFiniteScoreEMR is the reproduction from the wild: an anchor
// engine asked about a point 1e308 away overflows its distances, every
// score comes back NaN, and the server used to answer 200
// {"answers":null} — and cache it.
func TestNonFiniteScoreEMR(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 200, Classes: 4, Dim: 4, WithinStd: 0.25, Separation: 2.0, Seed: 5})
	idx, err := mogul.BuildEMR(ds.Points, mogul.Options{}, mogul.EMROptions{NumAnchors: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := New(idx, Options{CacheBytes: 1 << 20})
	defer s.Close()
	for _, body := range []string{`{"vector":[1e308,1e308,1e308,1e308]}`, `{"vector":[1e200,-1e200,1e200,1e200]}`} {
		for attempt := 0; attempt < 2; attempt++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, newBodyRequest(http.MethodPost, "/search/vector", body))
			if msg := checkErrorShape(t, rec, http.StatusInternalServerError); !strings.Contains(msg, "non-finite score") {
				t.Fatalf("%s: 500 message %q does not name the non-finite score", body, msg)
			}
		}
	}
	if cs := s.cache.Stats(); cs.Entries != 0 || s.met.cacheHits.Load() != 0 {
		t.Fatalf("an unrenderable result was cached: %d entries, %d hits", cs.Entries, s.met.cacheHits.Load())
	}
}

// poisoned wraps a Retriever so every ranking it returns carries score
// in its last row, and counts the engine calls — the gated idiom of
// race_test.go, for a backend that computes garbage instead of blocking.
type poisoned struct {
	mogul.Retriever
	score float64
	calls atomic.Int64
}

func (p *poisoned) plant(res []mogul.Result) []mogul.Result {
	p.calls.Add(1)
	if len(res) > 0 {
		res[len(res)-1].Score = p.score
	}
	return res
}

func (p *poisoned) NewQuerier() mogul.Querier { return &poisonedQuerier{p.Retriever.NewQuerier(), p} }

// TopKBatch poisons every second query, so a batch reply shows failed
// and healthy entries side by side.
func (p *poisoned) TopKBatch(ids []int, k, par int) []mogul.BatchResult {
	brs := p.Retriever.TopKBatch(ids, k, par)
	for i := 1; i < len(brs); i += 2 {
		p.plant(brs[i].Results)
	}
	return brs
}

type poisonedQuerier struct {
	mogul.Querier
	p *poisoned
}

func (q *poisonedQuerier) TopKWithInfo(id, k int) ([]mogul.Result, *mogul.SearchInfo, error) {
	res, info, err := q.Querier.TopKWithInfo(id, k)
	return q.p.plant(res), info, err
}

func (q *poisonedQuerier) TopKVector(v mogul.Vector, k int) ([]mogul.Result, error) {
	res, err := q.Querier.TopKVector(v, k)
	return q.p.plant(res), err
}

func (q *poisonedQuerier) TopKSet(ids []int, k int) ([]mogul.Result, error) {
	res, err := q.Querier.TopKSet(ids, k)
	return q.p.plant(res), err
}

// TestNonFiniteScoreIsAnError: a NaN or Inf score on any search route,
// cache on, is a 500 in the canonical error
// shape naming the score, counted as an error — never a 200 with the
// rows missing — and is not cached: the identical request runs the
// engine again. On /search/batch it is the error of the entry it
// happened in.
func TestNonFiniteScoreIsAnError(t *testing.T) {
	idx, ds := testIndex(t)
	vector := string(vectorBody(ds.Points[3]))
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			name, method, path, body, endpoint string
		}{
			{"id", http.MethodGet, "/search?id=5&k=4", "", "search"},
			{"vector", http.MethodPost, "/search/vector", vector, "search_vector"},
			{"set", http.MethodPost, "/search/set", `{"ids":[1,2],"k":4}`, "search_set"},
		} {
			t.Run(fmt.Sprintf("%s %v", tc.name, score), func(t *testing.T) {
				p := &poisoned{Retriever: idx, score: score}
				s := New(p, Options{CacheBytes: 1 << 20, Labels: ds.Labels})
				defer s.Close()
				for attempt := int64(1); attempt <= 2; attempt++ {
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, newBodyRequest(tc.method, tc.path, tc.body))
					if msg := checkErrorShape(t, rec, http.StatusInternalServerError); !strings.Contains(msg, "non-finite score") {
						t.Fatalf("500 message %q does not name the non-finite score", msg)
					}
					if got := p.calls.Load(); got != attempt {
						t.Fatalf("request %d: the engine ran %d times — a reply was served from the cache", attempt, got)
					}
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if want := fmt.Sprintf("mogul_request_errors_total{endpoint=%q} 2\n", tc.endpoint); !strings.Contains(rec.Body.String(), want) {
					t.Fatalf("/metrics lacks %q", want)
				}
				if cs := s.cache.Stats(); cs.Entries != 0 {
					t.Fatalf("%d unrenderable results were cached", cs.Entries)
				}
			})
		}

		t.Run(fmt.Sprintf("batch %v", score), func(t *testing.T) {
			s := New(&poisoned{Retriever: idx, score: score}, Options{Labels: ds.Labels})
			defer s.Close()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, newBodyRequest(http.MethodPost, "/search/batch", `{"ids":[10,11,12,13],"k":3}`))
			var reply struct {
				Results []struct {
					Query   int      `json:"query"`
					Answers []Answer `json:"answers"`
					Error   string   `json:"error"`
				} `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusOK || len(reply.Results) != 4 {
				t.Fatalf("status %d, %v: %s", rec.Code, err, rec.Body.String())
			}
			for i, r := range reply.Results {
				if poisonedEntry := i%2 == 1; poisonedEntry != strings.Contains(r.Error, "non-finite score") || poisonedEntry == (len(r.Answers) == 3) || r.Query != 10+i {
					t.Fatalf("entry %d: %+v", i, r)
				}
			}
		})
	}
}
