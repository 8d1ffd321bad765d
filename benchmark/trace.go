package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mogul"
)

// Span tracing from outside the program: the benchmark decorates the
// public seams the stack already accepts (http.Handler, the
// mogul.Retriever / mogul.Querier handed to serve.New, and
// dist.ClientOptions.Transport) and records one span per crossing.
//
// Attribution relies on the traced phases running ONE client: with a
// single request in flight, "the request being served" is a single
// value, so spans recorded on goroutines the stack spawns itself (the
// coordinator's fan-out) still get the right request id and parent
// without any cooperation from the code under test. The id crosses
// process-style boundaries the honest way — in headers — from the
// generator to serve, and from the coordinator's transport to each
// shard server.

// hdrSpan carries "<request id>.<parent span id>" across an HTTP hop:
// one header, set without canonicalisation, because on the 45 µs
// requests of mixed_rw every header line shows in the overhead ratio.
const hdrSpan = "X-Bench-Span"

func setSpanHeader(h http.Header, req, span int64) {
	h[hdrSpan] = []string{strconv.FormatInt(req, 10) + "." + strconv.FormatInt(span, 10)}
}

func spanHeader(h http.Header) (req, span int64) {
	if v := h[hdrSpan]; len(v) == 1 {
		a, b, _ := strings.Cut(v[0], ".")
		req, _ = strconv.ParseInt(a, 10, 64)
		span, _ = strconv.ParseInt(b, 10, 64)
	}
	return req, span
}

// Span names; the layer is the prefix before the dot.
const (
	spClient  = "client.request"
	spServe   = "serve.handler"
	spQuery   = "mogul.query"
	spInsert  = "mogul.insert"
	spDelete  = "mogul.delete"
	spCompact = "mogul.compact"
	spTrip    = "dist.roundtrip"
	spShard   = "dist.shard_handler"
)

// span is one layer crossing. Times are nanoseconds since the
// recorder's origin.
type span struct {
	Name       string
	Start, End int64
	ID, Parent int64
	// Req is shared by every span of one generator request.
	Req int64
	// Op is the request kind at the generator and serve boundaries
	// ("read", "insert", "delete", "compact"); empty deeper down.
	Op string
	// Failed marks a round trip that ended in a transport error or a
	// retryable status (one extra attempt each).
	Failed bool
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in a preallocated slice; recording is one atomic
// add plus a struct store, no locks, no allocation.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	spans  []span
	n      atomic.Int64
	ids    atomic.Int64

	// The request in flight (see the package comment on attribution).
	curReq    atomic.Int64
	curServe  atomic.Int64
	curEngine atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) nextID() int64 { return r.ids.Add(1) }

// add stores a finished span; spans past the preallocated capacity are
// counted but dropped.
func (r *recorder) add(s span) {
	if i := r.n.Add(1) - 1; int(i) < len(r.spans) {
		r.spans[i] = s
	}
}

// recorded returns the stored spans and how many did not fit.
func (r *recorder) recorded() (spans []span, dropped int) {
	n := int(r.n.Load())
	if n > len(r.spans) {
		return r.spans, n - len(r.spans)
	}
	return r.spans[:n], 0
}

// handler decorates an http.Handler with a span named name. Request id
// and parent arrive in the span header.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id := r.nextID()
		rid, parent := spanHeader(req.Header)
		if name == spServe {
			r.curReq.Store(rid)
			r.curServe.Store(id)
		}
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(span{Name: name, Start: start, End: r.now(), ID: id, Parent: parent, Req: rid, Op: opOfPath(req.URL.Path)})
		if name == spServe {
			r.curServe.Store(0)
		}
	})
}

// opOfPath classifies a serve / dist endpoint.
func opOfPath(p string) string {
	switch {
	case strings.HasSuffix(p, "/insert"):
		return "insert"
	case strings.HasSuffix(p, "/delete"):
		return "delete"
	case strings.HasSuffix(p, "/compact"):
		return "compact"
	}
	return "read"
}

// engine runs f as a span under the serve handler in flight.
func (r *recorder) engine(name string, f func()) {
	if !r.on.Load() {
		f()
		return
	}
	id := r.nextID()
	prev := r.curEngine.Swap(id)
	start := r.now()
	f()
	r.add(span{Name: name, Start: start, End: r.now(), ID: id, Parent: r.curServe.Load(), Req: r.curReq.Load()})
	r.curEngine.Store(prev)
}

// tracedRetriever decorates the engine handed to serve.New: queries
// are spanned through the Querier it hands out, mutations directly.
type tracedRetriever struct {
	mogul.Retriever
	r *recorder
}

func (t tracedRetriever) NewQuerier() mogul.Querier {
	return tracedQuerier{Querier: t.Retriever.NewQuerier(), r: t.r}
}

func (t tracedRetriever) Insert(v mogul.Vector) (id int, err error) {
	t.r.engine(spInsert, func() { id, err = t.Retriever.Insert(v) })
	return id, err
}

func (t tracedRetriever) Delete(id int) (err error) {
	t.r.engine(spDelete, func() { err = t.Retriever.Delete(id) })
	return err
}

func (t tracedRetriever) Compact() (err error) {
	t.r.engine(spCompact, func() { err = t.Retriever.Compact() })
	return err
}

// tracedQuerier spans the two calls serve's read endpoints make.
type tracedQuerier struct {
	mogul.Querier
	r *recorder
}

func (t tracedQuerier) TopKWithInfo(q, k int) (res []mogul.Result, info *mogul.SearchInfo, err error) {
	t.r.engine(spQuery, func() { res, info, err = t.Querier.TopKWithInfo(q, k) })
	return res, info, err
}

func (t tracedQuerier) TopKVector(q mogul.Vector, k int) (res []mogul.Result, err error) {
	t.r.engine(spQuery, func() { res, err = t.Querier.TopKVector(q, k) })
	return res, err
}

// tracedTransport spans every HTTP attempt the coordinator's shard
// clients make and forwards the request id to the shard server.
type tracedTransport struct {
	next *http.Transport
	r    *recorder
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.r.on.Load() {
		return t.next.RoundTrip(req)
	}
	id := t.r.nextID()
	rid := t.r.curReq.Load()
	parent := t.r.curEngine.Load()
	if parent == 0 {
		parent = t.r.curServe.Load()
	}
	req = req.Clone(req.Context())
	setSpanHeader(req.Header, rid, id)
	start := t.r.now()
	resp, err := t.next.RoundTrip(req)
	failed := err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
	// The span ends when the headers are back; the few hundred body
	// bytes are already in the same loopback segment.
	t.r.add(span{Name: spTrip, Start: start, End: t.r.now(), ID: id, Parent: parent, Req: rid, Failed: failed})
	return resp, err
}

func (t tracedTransport) CloseIdleConnections() { t.next.CloseIdleConnections() }

// selfTimes returns, per span id, the span's duration minus the part
// of its interval its children cover.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// nestingErrors checks the structural promises of a trace: every child
// lies inside its parent and shares its request id.
func nestingErrors(spans []span) []string {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var errs []string
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			errs = append(errs, s.Name+": parent span missing")
		case s.Start < p.Start || s.End > p.End:
			errs = append(errs, fmt.Sprintf("%s [%d,%d] op %s: not inside parent %s [%d,%d]", s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End))
		case s.Req != p.Req:
			errs = append(errs, s.Name+": request id differs from parent "+p.Name)
		}
	}
	return errs
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing). One lane per span name, so the layers
// of a request stack vertically.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	lanes := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		lane, ok := lanes[s.Name]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Name] = lane
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: lane, Args: map[string]int64{"req": s.Req, "id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
