package serve

// Regression tests for the unified error rendering contract: every
// error response — including 429 shed responses, which carry a
// Retry-After header — must also carry Content-Type:
// application/json and a {"error": msg} body. The shed path builds
// its response in two steps (header, then body via the shared
// renderer), so a refactor could plausibly drop one half; this pins
// both. Plus parseK edge cases: k > n is legal (the engine clamps to
// the live set), k = MaxInt must not overflow anything on the way
// down.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mogul/internal/jsonwire"
)

// checkErrorShape asserts the canonical error response: JSON
// Content-Type and an {"error": non-empty} body.
func checkErrorShape(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int) string {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status %d, want %d", rec.Code, wantStatus)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if body.Error == "" {
		t.Fatalf("body %q lacks an error message", rec.Body.String())
	}
	return body.Error
}

// TestShedResponseShape: the 429 shed response carries BOTH the
// Retry-After header and the canonical JSON error body.
func TestShedResponseShape(t *testing.T) {
	idx, _ := testIndex(t)
	s := New(idx, Options{RetryAfter: 3 * time.Second})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.shed(rec)
	checkErrorShape(t, rec, http.StatusTooManyRequests)
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	// Sub-second hints round UP to a whole second, never to 0.
	s2 := New(idx, Options{RetryAfter: 300 * time.Millisecond})
	defer s2.Close()
	rec2 := httptest.NewRecorder()
	s2.shed(rec2)
	if ra := rec2.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("sub-second Retry-After %q, want \"1\"", ra)
	}
}

// TestErrorShapeAcrossEndpoints: a sample of error paths on every
// endpoint family renders the same shape, and so does the 405 of every
// route in the route table asked with a method it does not answer — a
// route added later is covered without editing this test.
func TestErrorShapeAcrossEndpoints(t *testing.T) {
	idx, _ := testIndex(t)
	s := New(idx, Options{})
	defer s.Close()
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"search bad method", http.MethodPost, "/search?id=1", "", http.StatusMethodNotAllowed},
		{"search bad id", http.MethodGet, "/search?id=x", "", http.StatusBadRequest},
		{"search bad k", http.MethodGet, "/search?id=1&k=0", "", http.StatusBadRequest},
		{"search negative k", http.MethodGet, "/search?id=1&k=-5", "", http.StatusBadRequest},
		{"vector bad json", http.MethodPost, "/search/vector", "{", http.StatusBadRequest},
		{"set empty ids", http.MethodPost, "/search/set", `{"ids":[],"k":5}`, http.StatusBadRequest},
		{"batch bad json", http.MethodPost, "/search/batch", "{", http.StatusBadRequest},
		{"insert bad json", http.MethodPost, "/insert", "{", http.StatusBadRequest},
		{"delete bad body", http.MethodPost, "/delete", `{"id":"x"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := newBodyRequest(tc.method, tc.path, tc.body)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			checkErrorShape(t, rec, tc.wantStatus)
		})
	}
	for _, rt := range s.routes {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
			if method == rt.method {
				continue
			}
			t.Run(method+" "+rt.name, func(t *testing.T) {
				before := idx.Version()
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, newBodyRequest(method, rt.pattern+"?id=1", `{"id":1,"ids":[1],"vector":[1]}`))
				if msg := checkErrorShape(t, rec, http.StatusMethodNotAllowed); msg != "use "+rt.method {
					t.Fatalf("405 message %q does not name %s", msg, rt.method)
				}
				if idx.Version() != before {
					t.Fatal("a request with the wrong method mutated the index")
				}
			})
		}
	}
}

func newBodyRequest(method, path, body string) *http.Request {
	if body == "" {
		return httptest.NewRequest(method, path, nil)
	}
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// TestParseKEdges pins parseK/normalizeK at the edges: absent
// defaults to 10, zero and negatives reject, values up to MaxK pass
// through for the engine to clamp, and anything past it — up to MaxInt
// and beyond — rejects.
func TestParseKEdges(t *testing.T) {
	cases := []struct {
		raw    string
		want   int
		wantOK bool
	}{
		{"", 10, true},
		{"1", 1, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"x", 0, false},
		{"2.5", 0, false},
		{strconv.Itoa(MaxK), MaxK, true},
		{strconv.Itoa(MaxK + 1), 0, false},
		{strconv.Itoa(math.MaxInt), 0, false},
		// Overflow past MaxInt must reject, not wrap negative.
		{strconv.Itoa(math.MaxInt) + "0", 0, false},
	}
	for _, tc := range cases {
		k, err := parseK(tc.raw)
		if tc.wantOK != (err == nil) {
			t.Fatalf("parseK(%q): err=%v, wantOK=%v", tc.raw, err, tc.wantOK)
		}
		if tc.wantOK && k != tc.want {
			t.Fatalf("parseK(%q) = %d, want %d", tc.raw, k, tc.want)
		}
	}
	if k, err := normalizeK(0); err != nil || k != 10 {
		t.Fatalf("normalizeK(0) = %d, %v; want 10, nil", k, err)
	}
	if _, err := normalizeK(-1); err == nil {
		t.Fatal("normalizeK(-1) accepted")
	}
	if k, err := normalizeK(MaxK); err != nil || k != MaxK {
		t.Fatalf("normalizeK(MaxK) = %d, %v", k, err)
	}
	if _, err := normalizeK(MaxK + 1); err == nil {
		t.Fatal("normalizeK(MaxK+1) accepted")
	}
}

// TestSearchHugeK: k far beyond the index size — up to MaxK — answers
// 200 with every live item, proving the clamp happens in the engine and
// nothing between the HTTP layer and it chokes on the magnitude (no
// allocation sized by k anywhere on the path); past MaxK it is a 400.
func TestSearchHugeK(t *testing.T) {
	idx, ds := testIndex(t)
	n := ds.Len()
	s := New(idx, Options{})
	defer s.Close()
	for _, k := range []int{n, n + 1, 10 * n, MaxK} {
		req := httptest.NewRequest(http.MethodGet, "/search?id=0&k="+strconv.Itoa(k), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, rec.Code, rec.Body.String())
		}
		var resp struct {
			Answers []Answer `json:"answers"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != n {
			t.Fatalf("k=%d returned %d answers, want all %d live items", k, len(resp.Answers), n)
		}
	}
	for _, k := range []int{MaxK + 1, math.MaxInt} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?id=0&k="+strconv.Itoa(k), nil))
		if msg := checkErrorShape(t, rec, http.StatusBadRequest); !strings.Contains(msg, strconv.Itoa(MaxK)) {
			t.Fatalf("k=%d: 400 message %q does not name the cap %d", k, msg, MaxK)
		}
	}
}

// TestOversizedBodyRejected: every body-reading route stops reading at
// maxBodyBytes and answers 413 in the canonical error shape, and a
// body just under the cap still gets as far as JSON decoding (400 for
// this garbage), so the cap is the only thing that changed. The routes
// are read off the route table — a body-reading route is a POST route
// that answers an unterminated JSON body with 400 — so one added later
// is covered without editing this test.
func TestOversizedBodyRejected(t *testing.T) {
	// The cap is a network-facing bound, pinned here by value: moving it
	// is a decision this test has to be edited for.
	if maxBodyBytes != 33_554_432 {
		t.Fatalf("maxBodyBytes = %d, want 33554432 (32 MiB)", maxBodyBytes)
	}
	idx, _ := testIndex(t)
	s := New(idx, Options{})
	defer s.Close()
	open := `{"vector":[`
	oversized := open + strings.Repeat("1,", (maxBodyBytes-len(open))/2+1)
	var checked []string
	for _, rt := range s.routes {
		if rt.method != http.MethodPost {
			continue
		}
		path := rt.pattern
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(open)))
		if rec.Code != http.StatusBadRequest {
			continue // reads no body (/compact)
		}
		checked = append(checked, path)
		before := idx.Version()
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(oversized)))
		if msg := checkErrorShape(t, rec, http.StatusRequestEntityTooLarge); !strings.Contains(msg, strconv.Itoa(maxBodyBytes)) {
			t.Fatalf("%s: 413 message %q does not name the %d-byte cap", path, msg, maxBodyBytes)
		}
		if idx.Version() != before {
			t.Fatalf("%s: an oversized body mutated the index", path)
		}
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(oversized[:maxBodyBytes])))
		checkErrorShape(t, rec, http.StatusBadRequest)
	}
	// The probe must keep finding at least the five routes the
	// hand-kept list named.
	for _, path := range []string{"/search/vector", "/search/set", "/search/batch", "/insert", "/delete"} {
		if !slices.Contains(checked, path) {
			t.Fatalf("%s was not recognised as a body-reading route (found %v)", path, checked)
		}
	}
}

// TestLargeBodyBufferNotPooled: a body that grew its read buffer past
// jsonwire.MaxPooledBody must not leave that buffer in the read pool,
// where it would hold the memory until two collections pass. The pool is
// the one dist's Client reads its replies into, so this pins the bound
// for both. The body stands well clear of the bound rather than at the
// 32 MiB cap: bytes.Buffer grows by doubling, so anything past the bound
// shows the same thing. ReadJSON is called directly so that nothing
// allocates — and no collection can empty the pool — between its Put and
// the Get below, which on this P returns the buffer just pooled if there
// is one.
func TestLargeBodyBufferNotPooled(t *testing.T) {
	body := strings.Repeat(" ", 2*jsonwire.MaxPooledBody) + `{"id":1}`
	req := httptest.NewRequest(http.MethodPost, "/delete", strings.NewReader(body))
	var q DeleteRequest
	if err := ReadJSON(httptest.NewRecorder(), req, &q); err != nil || q.ID == nil {
		t.Fatalf("ReadJSON: %v (%+v)", err, q)
	}
	buf := jsonwire.GetReadBuf()
	defer jsonwire.PutReadBuf(buf)
	if buf.Cap() > jsonwire.MaxPooledBody {
		t.Fatalf("pooled body buffer has capacity %d, past the %d-byte bound", buf.Cap(), jsonwire.MaxPooledBody)
	}
}
