package jsonwire

import (
	"bytes"
	"math"
	"strconv"

	"mogul/internal/core"
)

// The scanners: one-pass decoders for the canonical form of the arrays
// and numbers a body carries. Each number is read once: one loop checks
// its grammar and collects its digits, and the value is converted from
// those, exactly (atof.go), with strconv.ParseFloat on the same bytes
// for the few floats the exact methods decline. A scanned value carries
// the bits encoding/json's ParseFloat(s, 64) and ParseInt give, and the
// same range verdict. Anything a scanner does not take — null, a number
// out of range, any syntax it does not know — it reports by returning
// nil or false, and the caller decodes the same bytes with
// encoding/json, which accepts or rejects them in its own words. The
// callers' fuzzers (serve's FuzzScanVectorQuery and
// FuzzScanInsertRequest, dist's FuzzScanDistReply) hold the two decoders
// to each other, and FuzzParseFloat holds ScanFloat to ParseFloat.

// Expect returns the offset past tok when b continues with it at i.
func Expect(b []byte, i int, tok string) (int, bool) {
	if len(b)-i >= len(tok) && string(b[i:i+len(tok)]) == tok {
		return i + len(tok), true
	}
	return i, false
}

// ScanFloat decodes the JSON number at b[i] and returns it with the
// offset past it; ok is false when there is no number there or it is
// out of float64's range. The value and the verdict are
// strconv.ParseFloat(s, 64)'s: parseFast gives them for nearly every
// number, and ParseFloat itself for the rest.
func ScanFloat(b []byte, i int) (f float64, end int, ok bool) {
	if f, end, ok = parseFast(b, i); ok || end == i {
		return f, end, ok
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// ScanInt decodes the JSON integer at b[i] — -?(0|[1-9][0-9]*) not
// followed by a fraction or an exponent — and returns it with the offset
// past it; ok is false when there is none or it is out of int's range,
// as strconv.ParseInt(s, 10, 0) would find it.
func ScanInt(b []byte, i int) (n int, end int, ok bool) {
	j := i
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	u, end, ok := ScanUint(b, j)
	if !ok {
		return 0, i, false
	}
	if neg {
		if u > uint64(math.MaxInt)+1 {
			return 0, i, false
		}
		return int(-u), end, true
	}
	if u > math.MaxInt {
		return 0, i, false
	}
	return int(u), end, true
}

// ScanUint decodes the unsigned JSON integer at b[i] —
// (0|[1-9][0-9]*) not followed by a fraction or an exponent — and
// returns it with the offset past it; ok is false when there is none (a
// sign included) or it is out of uint64's range, as
// strconv.ParseUint(s, 10, 64) would find it.
func ScanUint(b []byte, i int) (n uint64, end int, ok bool) {
	j := i
	switch {
	case j == len(b):
		return 0, i, false
	case b[j] == '0':
		j++
	case '1' <= b[j] && b[j] <= '9':
		for ; j < len(b); j++ {
			c := b[j] - '0'
			if c > 9 {
				break
			}
			if n > math.MaxUint64/10 || n*10 > math.MaxUint64-uint64(c) {
				return 0, i, false
			}
			n = n*10 + uint64(c)
		}
	default:
		return 0, i, false
	}
	if j < len(b) && (b[j] == '.' || b[j] == 'e' || b[j] == 'E') {
		return 0, i, false
	}
	return n, j, true
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
		item, e, ok := ScanInt(b, j)
		if !ok {
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
		out = append(out, core.Result{Node: item, Score: score})
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

// SkipSpace skips JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}
