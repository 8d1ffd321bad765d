package dist_test

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mogul"
	"mogul/dist"
	"mogul/serve"
)

// wireStep is one request of a transcript and the response recorded for
// it.
type wireStep struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   string `json:"body,omitempty"`
	// Oversized replaces Body with an unterminated JSON array just past
	// the serving layer's 32 MiB body cap.
	Oversized bool `json:"oversized,omitempty"`

	Status int    `json:"status"`
	Type   string `json:"content_type,omitempty"`
	// Headers holds Retry-After and X-Mogul-Version when present.
	Headers map[string]string `json:"headers,omitempty"`
	// Reply is the response body with the wall-clock fields zeroed:
	// verbatim for JSON and text, base64 for application/octet-stream.
	Reply string `json:"reply,omitempty"`
	// Opaque leaves Reply unpinned: a snapshot embeds the build's wall-clock
	// stage timings.
	Opaque bool `json:"opaque,omitempty"`
}

// wireTranscript is one testdata/wire file: the steps run in order
// against a fresh server of the named kind.
type wireTranscript struct {
	// Server is "serve" (serve.New) or "shard" (dist.NewShardServer).
	Server string     `json:"server"`
	Steps  []wireStep `json:"steps"`
}

var (
	// wallClock matches the JSON fields that carry a measured duration.
	wallClock = regexp.MustCompile(`"(took_us|precompute_s|mean_latency_us|ClusterTime|PermuteTime|FactorTime)":[-+.eE0-9]+`)
	// latencyLine matches the /metrics histogram series, whose bucket
	// counts depend on how fast each request ran.
	latencyLine = regexp.MustCompile(`(?m)^mogul_request_duration_seconds_.*\n`)
)

// wireServer builds the fixture every transcript runs against: a fresh
// 60-point labelled index behind a 1 MiB result cache.
func wireServer(t *testing.T, kind string) (http.Handler, func()) {
	t.Helper()
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.3, Separation: 3, Seed: 3})
	ix, err := mogul.Build(ds.Points, mogul.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := serve.Options{Labels: ds.Labels, CacheBytes: 1 << 20}
	switch kind {
	case "serve":
		s := serve.New(ix, opts)
		return s, s.Close
	case "shard":
		s := dist.NewShardServer(ix, opts)
		return s, s.Close
	}
	t.Fatalf("unknown transcript server kind %q", kind)
	return nil, nil
}

// play sends one step's request and returns the step with the observed
// response filled in, normalised the way the files are.
func play(h http.Handler, st wireStep) wireStep {
	body := st.Body
	if st.Oversized {
		body = `{"vector":[` + strings.Repeat("1,", 16<<20)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(st.Method, st.Path, strings.NewReader(body)))
	st.Status, st.Type, st.Headers, st.Reply = rec.Code, rec.Header().Get("Content-Type"), nil, ""
	for _, name := range []string{"Retry-After", "X-Mogul-Version"} {
		if v := rec.Header().Get(name); v != "" {
			if st.Headers == nil {
				st.Headers = map[string]string{}
			}
			st.Headers[name] = v
		}
	}
	switch {
	case st.Opaque:
	case st.Type == "application/octet-stream":
		st.Reply = base64.StdEncoding.EncodeToString(rec.Body.Bytes())
	default:
		st.Reply = latencyLine.ReplaceAllString(wallClock.ReplaceAllString(rec.Body.String(), `"$1":0`), "")
	}
	return st
}

// TestWireTranscripts replays the committed request/response
// transcripts in testdata/wire against this tree's handlers. A refactor
// of the request path moves encoder and decoder together, so a
// round-trip inside one binary cannot see a field renamed, a key
// reordered or a status changed; these files are what an old client or
// an old shard server would actually see.
//
// Every file was written by the commit that preceded the one route
// table (PR 16, c2b5f91): its steps were sent in order to a fresh
// wireServer through play, and the steps it returned were stored with
// json.MarshalIndent. The steps after the 405 of search_vector and
// dist_vector and after the /healthz of mutate were appended the same
// way by the commit that preceded serve's request scanner (PR 17,
// 70a328e): the shapes the scanner leaves to encoding/json — null
// elements, case-folded, duplicate, unknown and escaped keys, numbers
// out of range, "k":3.0, trailing bytes — and a few it takes itself, so
// that decoder's acceptances, values and error strings are what the
// two-armed ReadJSON is held to. dist_bound was written the same way,
// through play and json.MarshalIndent, by the change that added the
// route.
//
// A step passes when status, Content-Type, the two
// pinned headers and the reply are identical — the reply byte for byte
// after zeroing the wall-clock fields (wallClock) and dropping the
// latency histogram lines of /metrics (latencyLine), which covers key
// order, float text and the answers array at once. Scores are float64
// results of amd64 arithmetic; the files are never regenerated to make
// the test pass. The mux-level differences this pins nothing about:
// /healthz, /stats, /metrics and /item/ accepted every method at that
// commit and now answer 405 to anything but GET.
func TestWireTranscripts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "wire", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no transcripts found (%v)", err)
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".json"), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var tr wireTranscript
			if err := json.Unmarshal(data, &tr); err != nil {
				t.Fatal(err)
			}
			h, stop := wireServer(t, tr.Server)
			defer stop()
			for i, want := range tr.Steps {
				got := play(h, want)
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(want)
				if string(gotJSON) != string(wantJSON) {
					t.Fatalf("step %d (%s %s):\n got %s\nwant %s", i, want.Method, want.Path, gotJSON, wantJSON)
				}
			}
		})
	}
}
