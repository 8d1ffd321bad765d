package jsonwire

import (
	"bytes"
	"strconv"

	"mogul/internal/core"
)

// The scanners: one-pass decoders for the canonical form of the arrays
// and numbers a body carries. Numbers are converted by the strconv calls
// encoding/json makes (ParseFloat(s, 64), ParseInt), so a scanned value
// carries the same bits. Anything a scanner does not take — null, a
// number out of range, any syntax it does not know — it reports by
// returning nil or false, and the caller decodes the same bytes with
// encoding/json, which accepts or rejects them in its own words. The
// callers' fuzzers (serve's FuzzScanVectorQuery and
// FuzzScanInsertRequest, dist's FuzzScanDistReply) hold the two decoders
// to each other.

// Expect returns the offset past tok when b continues with it at i.
func Expect(b []byte, i int, tok string) (int, bool) {
	if len(b)-i >= len(tok) && string(b[i:i+len(tok)]) == tok {
		return i + len(tok), true
	}
	return i, false
}

// ScanFloat decodes the JSON number at b[i] and returns it with the
// offset past it; ok is false when there is no number there or it is
// out of float64's range.
func ScanFloat(b []byte, i int) (f float64, end int, ok bool) {
	end, _ = ScanNumber(b, i)
	if end == i {
		return 0, i, false
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// ScanFloats decodes the array of numbers opening at b[i] and returns it
// with the offset past its closing bracket: non-nil (empty for "[]",
// like json.Unmarshal) on success, nil on anything but an array of
// in-range JSON numbers. JSON whitespace may stand between the tokens.
// The slice is sized once, from the commas before the first closing
// bracket.
func ScanFloats(b []byte, i int) ([]float64, int) {
	if i == len(b) || b[i] != '[' {
		return nil, i
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, i
	}
	end += i
	if i = SkipSpace(b, i+1); i == end {
		return []float64{}, end + 1
	}
	out := make([]float64, 0, bytes.Count(b[i:end], []byte{','})+1)
	for {
		f, e, ok := ScanFloat(b, i)
		if !ok {
			return nil, i
		}
		out = append(out, f)
		// Every element ends before the bracket found above, so b[i] is
		// in range.
		switch i = SkipSpace(b, e); b[i] {
		case ']':
			return out, i + 1
		case ',':
			i = SkipSpace(b, i+1)
		default:
			return nil, i
		}
	}
}

// ScanRows decodes the array of result rows opening at b[i] in the form
// AppendRows writes without labels — [{"item":N,"score":S},...], no
// whitespace — and returns it with the offset past the closing bracket:
// non-nil (empty for "[]") on success, nil on anything else, a "label"
// included. The slice is sized once, from the rows before the first
// closing bracket.
func ScanRows(b []byte, i int) ([]core.Result, int) {
	if i == len(b) || b[i] != '[' {
		return nil, i
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, i
	}
	end += i
	out := make([]core.Result, 0, bytes.Count(b[i:end], []byte{'{'}))
	if i++; i == end {
		return out, end + 1
	}
	for {
		j, ok := Expect(b, i, `{"item":`)
		if !ok {
			return nil, i
		}
		e, integer := ScanNumber(b, j)
		if !integer {
			return nil, i
		}
		item, err := strconv.ParseInt(string(b[j:e]), 10, 0)
		if err != nil {
			return nil, i
		}
		if j, ok = Expect(b, e, `,"score":`); !ok {
			return nil, i
		}
		score, e, ok := ScanFloat(b, j)
		if !ok {
			return nil, i
		}
		if j, ok = Expect(b, e, "}"); !ok {
			return nil, i
		}
		out = append(out, core.Result{Node: int(item), Score: score})
		// No row holds a ']', so b[j] is at or before the bracket found
		// above.
		switch i = j; b[i] {
		case ']':
			return out, i + 1
		case ',':
			i++
		default:
			return nil, i
		}
	}
}

// ScanNumber returns the offset past the longest JSON-grammar number
// starting at b[i] — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
// and whether it has neither fraction nor exponent; end == i when there
// is none. The grammar is checked here because strconv accepts more than
// JSON does (+1, .5, 1., 0x10, 1_0, Inf). A number running into a byte
// that cannot follow one ("01") is the caller's to reject.
func ScanNumber(b []byte, i int) (end int, integer bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j == len(b):
		return i, false
	case b[j] == '0':
		j++
	case '1' <= b[j] && b[j] <= '9':
		j = skipDigits(b, j+1)
	default:
		return i, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		d := skipDigits(b, j+1)
		if d == j+1 {
			return i, false
		}
		j, integer = d, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		d := j + 1
		if d < len(b) && (b[d] == '+' || b[d] == '-') {
			d++
		}
		e := skipDigits(b, d)
		if e == d {
			return i, false
		}
		j, integer = e, false
	}
	return j, integer
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// SkipSpace skips JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}
