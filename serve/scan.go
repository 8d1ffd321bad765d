package serve

import (
	"bytes"
	"strconv"

	"mogul/internal/jsonwire"
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
// two decoders to each other. The number and array scanners under the
// key loop are internal/jsonwire's, shared with dist's reply scanner.

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
	i := jsonwire.SkipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = jsonwire.SkipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		// {} names no key, so there is nothing to write.
		return jsonwire.SkipSpace(b, i+1) == len(b)
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
		i = jsonwire.SkipSpace(b, i+klen+2)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = jsonwire.SkipSpace(b, i+1)
		switch {
		case string(key) == "vector" && !seenV:
			seenV = true
			if vec, i = jsonwire.ScanFloats(b, i); vec == nil {
				return false
			}
		case string(key) == "k" && k != nil && !seenK:
			seenK = true
			end, integer := jsonwire.ScanNumber(b, i)
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
		i = jsonwire.SkipSpace(b, i)
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
		i = jsonwire.SkipSpace(b, i+1)
	}
	if jsonwire.SkipSpace(b, i) != len(b) {
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
