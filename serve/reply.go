package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"mogul"
)

// The reply writer: the mirror of the request scanner (scan.go) for the
// way out. A search reply is k (item, score) rows inside a fixed
// envelope, and both were rendered through encoding/json's reflection —
// the rows into the cache entry, then the envelope around them, where
// the rows (a json.RawMessage) were validated and compacted again on
// every request, hits included. The functions here append the same bytes
// directly: the rows once, when a search ran (appendRows, the one
// renderer behind answer, the micro-batcher and /search/batch), and the
// envelope per request into a pooled buffer that leaves in one Write of
// known length (writeReply).
//
// The bytes are encoding/json's, which FuzzWriteSearchReply holds them
// to: fields in declaration order, omitempty honoured, a trailing
// newline as Encoder writes it, integers by strconv.AppendInt, and
// scores by strconv.AppendFloat in the shortest form that round-trips —
// 'f' unless |x| < 1e-6 or |x| >= 1e21, then 'e' with a two-digit
// negative exponent's leading zero dropped (1e-07 -> 1e-7). The one
// value JSON cannot carry, a non-finite score, is an error here instead
// of the empty reply it used to become. Every other reply of this server
// stays with WriteJSON.

// errNonFiniteScore is appendRows refusing a NaN or ±Inf score;
// searchError answers it 500.
var errNonFiniteScore = errors.New("serve: non-finite score")

// appendRows appends the JSON array of Answer rows for res to dst;
// labels is the label table as of now (Server.labelView). On a
// non-finite score it returns dst as it was and the error.
func appendRows(dst []byte, res []mogul.Result, labels []int) ([]byte, error) {
	b := append(dst, '[')
	for i, r := range res {
		if math.IsInf(r.Score, 0) || math.IsNaN(r.Score) {
			return dst, fmt.Errorf("%w: item %d scored %v", errNonFiniteScore, r.Node, r.Score)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"item":`...)
		b = strconv.AppendInt(b, int64(r.Node), 10)
		b = append(b, `,"score":`...)
		b = appendScore(b, r.Score)
		// Inserted items sit beyond the labelled range; they simply
		// carry no label.
		if uint(r.Node) < uint(len(labels)) {
			b = append(b, `,"label":`...)
			b = strconv.AppendInt(b, int64(labels[r.Node]), 10)
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendScore appends a finite float64 the way encoding/json does.
func appendScore(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendSearchReply appends the search envelope around e's rendered
// rows: what q asked, how long it took, and the entry's work counters
// where it has any.
func appendSearchReply(dst []byte, q query, tookUS int64, e cacheEntry, exact, cached bool) []byte {
	b := append(dst, `{"query":`...)
	switch echo := q.echo.(type) {
	case int:
		b = strconv.AppendInt(b, int64(echo), 10)
	case string:
		b = append(append(append(b, '"'), echo...), '"')
	case []int:
		b = appendInts(b, echo)
	default:
		b = append(b, "null"...)
	}
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(q.k), 10)
	b = append(b, `,"took_us":`...)
	b = strconv.AppendInt(b, tookUS, 10)
	b = append(b, `,"answers":`...)
	b = append(b, e.answers...)
	b = append(b, `,"exact":`...)
	b = strconv.AppendBool(b, exact)
	if cached {
		b = append(b, `,"cached":true`...)
	}
	b = appendCounter(b, `,"clusters_pruned":`, e.info.ClustersPruned)
	b = appendCounter(b, `,"clusters_scanned":`, e.info.ClustersScanned)
	b = appendCounter(b, `,"scores_computed":`, e.info.ScoresComputed)
	return append(b, '}', '\n')
}

// appendInts appends ids as a JSON array: null for a nil slice, [] for
// an empty one.
func appendInts(b []byte, ids []int) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendCounter appends an omitempty integer field.
func appendCounter(b []byte, field string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, field...), int64(n), 10)
}

// appendBatchReply appends the /search/batch reply: per query its rows,
// or its error — the engine's, or appendRows' for a score it could not
// render.
func appendBatchReply(dst []byte, k int, tookUS int64, batch []mogul.BatchResult, labels []int) []byte {
	b := append(dst, `{"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"results":[`...)
	for i, br := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"query":`...)
		b = strconv.AppendInt(b, int64(br.Query), 10)
		err := br.Err
		if err == nil && len(br.Results) > 0 {
			mark := len(b)
			if b, err = appendRows(append(b, `,"answers":`...), br.Results, labels); err != nil {
				b = b[:mark]
			}
		}
		if err != nil {
			// A string always marshals; encoding/json owns the escaping.
			msg, _ := json.Marshal(err.Error())
			b = append(append(b, `,"error":`...), msg...)
		}
		b = append(b, '}')
	}
	b = append(b, `],"took_us":`...)
	b = strconv.AppendInt(b, tookUS, 10)
	return append(b, '}', '\n')
}

// replyBufs recycles the buffers replies are rendered into. One that
// grew past maxPooledReply (k = MaxK renders ~500 KB) is left to the
// collector, as bodyBufs does past maxPooledBody.
var replyBufs = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 2048)
	return &b
}}

const maxPooledReply = 64 << 10

// jsonContentType is the Content-Type value of every rendered reply,
// shared: a header map only ever reads it.
var jsonContentType = []string{"application/json"}

// putReplyBuf returns buf to the pool holding b, the slice that grew out
// of it.
func putReplyBuf(buf *[]byte, b []byte) {
	if cap(b) <= maxPooledReply {
		*buf = b[:0]
		replyBufs.Put(buf)
	}
}

// writeReply sends a reply rendered into a replyBufs buffer as 200
// application/json and returns the buffer to the pool. The length is
// known before the first byte leaves, so it is declared: a reply past
// net/http's 2 KiB buffer is not chunked.
func writeReply(w http.ResponseWriter, buf *[]byte, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	// A failed Write is a client that went away; there is nobody to tell.
	_, _ = w.Write(body)
	putReplyBuf(buf, body)
}
