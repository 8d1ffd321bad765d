//go:build !race

package dist

import (
	"testing"

	"mogul"
	"mogul/internal/jsonwire"
)

// Under the race detector sync.Pool drops a share of what is Put, so the
// counts below hold only without it (as for serve's reply_alloc_test.go).

// TestDistReplyAllocs pins what the one-pass /dist hop costs the
// allocator: writing a reply into a pooled buffer costs nothing, and
// scanning one allocates only what it returns — the results, plus the
// vector of an owner reply.
func TestDistReplyAllocs(t *testing.T) {
	res := make([]mogul.Result, 10)
	for i := range res {
		res[i] = mogul.Result{Node: 100 + i, Score: 0.08056345156126386 / float64(i+1)}
	}
	vec := []float64{-2.639486504262051, -5.519484067310995, -0.7300142712020776, 3.0517578125e-07}
	for _, tc := range []struct {
		owner bool
		scan  float64
	}{{true, 2}, {false, 1}} {
		var body []byte
		write := testing.AllocsPerRun(200, func() {
			buf := jsonwire.GetBuf()
			b, err := appendReply(*buf, tc.owner, 7, res, vec, 0.6507287335960286)
			if err != nil {
				t.Fatal(err)
			}
			body = append(body[:0], b...)
			jsonwire.PutBuf(buf, b)
		})
		var r searchReply
		scan := testing.AllocsPerRun(200, func() {
			if !r.scan(body, tc.owner) {
				t.Fatalf("scanner declined %s", body)
			}
		})
		t.Logf("owner=%v: write %.0f allocs, scan %.0f", tc.owner, write, scan)
		if write != 0 || scan != tc.scan {
			t.Errorf("owner=%v: write %.0f allocs (want 0), scan %.0f (want %.0f)", tc.owner, write, scan, tc.scan)
		}
	}
}
