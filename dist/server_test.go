package dist_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mogul"
	"mogul/dist"
	"mogul/serve"
)

// endlessOnes is a JSON array body that never closes: `{"vector":[`
// followed by `1,` for as long as the server keeps reading.
type endlessOnes struct{ opened bool }

func (e *endlessOnes) Read(p []byte) (int, error) {
	if !e.opened {
		e.opened = true
		return copy(p, `{"vector":[`), nil
	}
	for i := range p {
		p[i] = "1,"[i%2]
	}
	return len(p), nil
}

// TestShardServerBoundsRequestBodies: the body-reading /dist endpoints
// stop at the serve layer's body cap and answer 413 in the canonical
// error shape instead of buffering whatever a client streams at them; a
// small malformed body still gets the 400 it always did.
func TestShardServerBoundsRequestBodies(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.3, Separation: 3, Seed: 3})
	ix, err := mogul.Build(ds.Points, mogul.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := dist.NewShardServer(ix, serve.Options{})
	defer srv.Close()

	errorBody := func(rec *httptest.ResponseRecorder, wantStatus int) string {
		t.Helper()
		if rec.Code != wantStatus {
			t.Fatalf("status %d, want %d (%s)", rec.Code, wantStatus, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("body %q is not the canonical error shape (%v)", rec.Body.String(), err)
		}
		return body.Error
	}
	for _, path := range []string{"/dist/vector", "/dist/set", "/dist/truncate"} {
		// 1 GiB on offer; the handler must give up at the cap, long before.
		body := &endlessOnes{}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, io.LimitReader(body, 1<<30)))
		if msg := errorBody(rec, http.StatusRequestEntityTooLarge); !strings.Contains(msg, "request body exceeds") {
			t.Fatalf("%s: 413 message %q does not name the cap", path, msg)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"vector":[`)))
		errorBody(rec, http.StatusBadRequest)
	}
	if ix.Version() != 1 || ix.LogLen() != 0 {
		t.Fatalf("a rejected body reached the index: version %d, log length %d", ix.Version(), ix.LogLen())
	}
}
