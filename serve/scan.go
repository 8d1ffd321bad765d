package serve

import (
	"bytes"
	"strconv"
)

// The request scanner: a one-pass decoder for the canonical form of the
// two array-carrying request bodies, VectorQuery and InsertRequest. On a
// d = 512 query encoding/json's validate-then-reflect decode costs more
// than the search it feeds; the bodies real clients send are all one
// simple shape, so ReadJSON tries that shape first.
//
// The canonical form is: one object; keys from the type's own set
// ("vector", and "k" for VectorQuery) in any order, exact-case, without
// escapes, each at most once; "vector" an array of JSON-grammar numbers,
// "k" a JSON-grammar integer; JSON whitespace anywhere between tokens
// and nothing else after the closing brace. Numbers are converted by the
// strconv calls encoding/json makes (ParseFloat(s, 64), ParseInt), so a
// scanned value carries the same bits. Anything else — null, a
// case-folded, unknown, duplicate or escaped key, a number out of range,
// "k":3.0, trailing bytes, any syntax error — is not the scanner's to
// judge: it reports false having written nothing, and ReadJSON decodes
// the same bytes with encoding/json, which accepts or rejects them in
// its own words. FuzzScanVectorQuery and FuzzScanInsertRequest hold the
// two decoders to each other.

// scannable is a request type with a canonical-form scanner: scanJSON
// decodes body into the receiver and reports true, or reports false
// leaving the receiver untouched.
type scannable interface {
	scanJSON(body []byte) bool
}

func (q *VectorQuery) scanJSON(body []byte) bool   { return scanVectorBody(body, &q.Vector, &q.K) }
func (q *InsertRequest) scanJSON(body []byte) bool { return scanVectorBody(body, &q.Vector, nil) }

// scanVectorBody scans {"vector":[...],"k":N} into *vector and *k; a nil
// k means the type has no "k" key. A key the body does not carry leaves
// its target as it was, like json.Unmarshal.
func scanVectorBody(b []byte, vector *[]float64, k *int) bool {
	var (
		vec          []float64
		kval         int
		seenV, seenK bool
	)
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		// {} names no key, so there is nothing to write.
		return skipSpace(b, i+1) == len(b)
	}
	for {
		if i == len(b) || b[i] != '"' {
			return false
		}
		klen := bytes.IndexByte(b[i+1:], '"')
		if klen < 0 {
			return false
		}
		key := b[i+1 : i+1+klen]
		i = skipSpace(b, i+klen+2)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch {
		case string(key) == "vector" && !seenV:
			seenV = true
			if vec, i = scanFloats(b, i); vec == nil {
				return false
			}
		case string(key) == "k" && k != nil && !seenK:
			seenK = true
			end, integer := scanNumber(b, i)
			if !integer {
				return false
			}
			n, err := strconv.ParseInt(string(b[i:end]), 10, 0)
			if err != nil {
				return false
			}
			kval, i = int(n), end
		default:
			return false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		if b[i] == '}' {
			i++
			break
		}
		if b[i] != ',' {
			return false
		}
		i = skipSpace(b, i+1)
	}
	if skipSpace(b, i) != len(b) {
		return false
	}
	if seenV {
		*vector = vec
	}
	if seenK {
		*k = kval
	}
	return true
}

// scanFloats decodes the array of numbers opening at b[i] and returns it
// with the offset past its closing bracket: non-nil (empty for "[]",
// like json.Unmarshal) on success, nil on anything but an array of
// in-range JSON numbers. The slice is sized once, from the commas before
// the first closing bracket.
func scanFloats(b []byte, i int) ([]float64, int) {
	if i == len(b) || b[i] != '[' {
		return nil, i
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, i
	}
	end += i
	if i = skipSpace(b, i+1); i == end {
		return []float64{}, end + 1
	}
	out := make([]float64, 0, bytes.Count(b[i:end], []byte{','})+1)
	for {
		e, _ := scanNumber(b, i)
		if e == i {
			return nil, i
		}
		f, err := strconv.ParseFloat(string(b[i:e]), 64)
		if err != nil {
			return nil, i
		}
		out = append(out, f)
		// Every element ends before the bracket found above, so b[i] is
		// in range.
		switch i = skipSpace(b, e); b[i] {
		case ']':
			return out, i + 1
		case ',':
			i = skipSpace(b, i+1)
		default:
			return nil, i
		}
	}
}

// scanNumber returns the offset past the longest JSON-grammar number
// starting at b[i] — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
// and whether it has neither fraction nor exponent; end == i when there
// is none. The grammar is checked here because strconv accepts more than
// JSON does (+1, .5, 1., 0x10, 1_0, Inf). A number running into a byte
// that cannot follow one ("01") is the caller's to reject.
func scanNumber(b []byte, i int) (end int, integer bool) {
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

// skipSpace skips JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}
