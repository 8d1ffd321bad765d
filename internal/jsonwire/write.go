// Package jsonwire is the one-pass JSON codec that serve and dist share:
// the writer that appends a reply's bytes without encoding/json's
// reflection, the pooled buffer a reply is rendered into and sent from,
// the pooled buffer a body is read into, and the canonical-form scanners
// for the arrays the requests and replies carry. Neither side exports
// it: serve builds its search envelopes and its request scanners from
// these pieces, dist its /dist search replies and request bodies.
//
// The bytes written are encoding/json's, which the callers' fuzzers
// (serve's FuzzWriteSearchReply, dist's FuzzWriteDistReply) hold them
// to: integers by strconv.AppendInt, floats by strconv.AppendFloat in
// the shortest form that round-trips — 'f' unless |x| < 1e-6 or
// |x| >= 1e21, then 'e' with a two-digit negative exponent's leading
// zero dropped (1e-07 -> 1e-7). The one value JSON cannot carry, a NaN
// or ±Inf, is an error (ErrNonFinite) instead of the empty reply
// encoding/json's failure used to become.
package jsonwire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"mogul/internal/core"
)

// ErrNonFinite is a writer refusing a NaN or ±Inf.
var ErrNonFinite = errors.New("non-finite")

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// AppendFloat appends a finite float64 the way encoding/json does.
func AppendFloat(b []byte, f float64) []byte {
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

// AppendFinite appends f as AppendFloat does; a NaN or ±Inf is an error
// naming what, with b returned as it was.
func AppendFinite(b []byte, f float64, what string) ([]byte, error) {
	if !finite(f) {
		return b, fmt.Errorf("%w %s: %v", ErrNonFinite, what, f)
	}
	return AppendFloat(b, f), nil
}

// AppendFloats appends v as a JSON array of numbers: null for a nil
// slice, [] for an empty one. On a non-finite element it returns b as it
// was and the error.
func AppendFloats(b []byte, v []float64) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	out := append(b, '[')
	for i, f := range v {
		if !finite(f) {
			return b, fmt.Errorf("%w vector element %d: %v", ErrNonFinite, i, f)
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = AppendFloat(out, f)
	}
	return append(out, ']'), nil
}

// AppendRows appends the JSON array of result rows for res to dst — an
// {"item":N,"score":S} object a row, with "label" added for an item the
// label table covers. On a non-finite score it returns dst as it was and
// an error naming the item.
func AppendRows(dst []byte, res []core.Result, labels []int) ([]byte, error) {
	b := append(dst, '[')
	for i, r := range res {
		if !finite(r.Score) {
			return dst, fmt.Errorf("%w score: item %d scored %v", ErrNonFinite, r.Node, r.Score)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"item":`...)
		b = strconv.AppendInt(b, int64(r.Node), 10)
		b = append(b, `,"score":`...)
		b = AppendFloat(b, r.Score)
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

// bufs recycles the buffers replies are rendered into. One that grew
// past MaxPooled (k = serve.MaxK renders ~500 KB) is left to the
// collector.
var bufs = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 2048)
	return &b
}}

// MaxPooled is the largest buffer capacity a pool of reply buffers
// keeps.
const MaxPooled = 64 << 10

// GetBuf takes an empty reply buffer from the pool.
func GetBuf() *[]byte { return bufs.Get().(*[]byte) }

// PutBuf returns buf to the pool holding b, the slice that grew out of
// it.
func PutBuf(buf *[]byte, b []byte) {
	if cap(b) <= MaxPooled {
		*buf = b[:0]
		bufs.Put(buf)
	}
}

// readBufs recycles the buffers bodies are read into: serve's request
// bodies and the Client's /dist replies. Reading into a pooled buffer
// beats a fresh json.Decoder, which allocates its own 4K read buffer on
// every body.
var readBufs = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// MaxPooledBody is the largest capacity a read buffer may have and still
// go back to the pool; one that grew past it is left to the collector
// instead of parking that much memory in the pool.
const MaxPooledBody = 1 << 20

// GetReadBuf takes a body read buffer from the pool.
func GetReadBuf() *bytes.Buffer { return readBufs.Get().(*bytes.Buffer) }

// PutReadBuf empties buf and returns it to the pool, unless it grew past
// MaxPooledBody.
func PutReadBuf(buf *bytes.Buffer) {
	if buf.Cap() <= MaxPooledBody {
		buf.Reset()
		readBufs.Put(buf)
	}
}

// jsonContentType is the Content-Type value of every rendered reply,
// shared: a header map only ever reads it.
var jsonContentType = []string{"application/json"}

// WriteReply sends a reply rendered into a GetBuf buffer as 200
// application/json and returns the buffer to the pool. The length is
// known before the first byte leaves, so it is declared: a reply past
// net/http's 2 KiB buffer is not chunked.
func WriteReply(w http.ResponseWriter, buf *[]byte, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	// A failed Write is a client that went away; there is nobody to tell.
	_, _ = w.Write(body)
	PutBuf(buf, body)
}
