package serve

import (
	"encoding/json"
	"strconv"

	"mogul"
	"mogul/internal/jsonwire"
)

// The reply writer: the mirror of the request scanner (scan.go) for the
// way out. A search reply is k (item, score) rows inside a fixed
// envelope, and both were rendered through encoding/json's reflection —
// the rows into the cache entry, then the envelope around them, where
// the rows (a json.RawMessage) were validated and compacted again on
// every request, hits included. The functions here append the same bytes
// directly: the rows once, when a search ran (appendRows, the one
// renderer behind answer and /search/batch), and the envelope per
// request into a pooled buffer that leaves in one Write of known length
// (jsonwire.WriteReply).
//
// The bytes are encoding/json's, which FuzzWriteSearchReply holds them
// to: fields in declaration order, omitempty honoured, a trailing
// newline as Encoder writes it, and the rows and numbers as
// internal/jsonwire writes them. The one value JSON cannot carry, a
// non-finite score, is an error here instead of the empty reply it used
// to become. dist's /dist/* search replies are written by the same
// jsonwire pieces; every other reply of this server and of dist stays
// with WriteJSON.

// errNonFiniteScore is appendRows refusing a NaN or ±Inf score;
// searchError answers it 500.
var errNonFiniteScore = jsonwire.ErrNonFinite

// appendRows appends the JSON array of Answer rows for res to dst;
// labels is the label table as of now (Server.labelView). On a
// non-finite score it returns dst as it was and the error.
func appendRows(dst []byte, res []mogul.Result, labels []int) ([]byte, error) {
	return jsonwire.AppendRows(dst, res, labels)
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
