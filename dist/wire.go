package dist

import (
	"errors"
	"strconv"

	"mogul"
	"mogul/internal/jsonwire"
	"mogul/serve"
)

// The /dist wire: the reply and request shapes only the /dist/* routes
// speak, each encoded by a ShardServer handler and decoded by the Client
// method of the same Backend call (the shapes shared with the serve
// routes are in serve/wire.go). Ids are SHARD-LOCAL — the coordinator
// owns the global remap — and float64 scores, vectors and affinities
// cross in JSON's shortest round-trip form, i.e. bit-exactly, which is
// what lets a coordinator's merged ranking be pinned against the
// in-process oracle.
//
// The search hop — /dist/owner, /dist/vector and /dist/set — is written
// and read in one pass with internal/jsonwire, serve's own reply codec:
// appendReply writes ownerResponse's and vectorResponse's bytes,
// searchReply.scan reads them back, and appendVectorQuery writes the
// /dist/vector body that serve's request scanner reads, so neither end
// reflects. FuzzWriteDistReply holds the writers to json.Marshal and
// FuzzScanDistReply the scanner to json.Unmarshal; a search reply the
// scanner does not take is an error. The /dist/bound reply, ~100 KB of
// floats, is written by appendBound and read by scanBound the same way
// (TestBoundCodec). Every other /dist reply is decoded into the types
// below by encoding/json.

// Info is a shard's state snapshot (/dist/info).
type Info struct {
	Items   int              `json:"items"`
	Version uint64           `json:"version"`
	Exact   bool             `json:"exact"`
	IDSpace int              `json:"id_space"`
	LogLen  int              `json:"log_len"`
	Stats   mogul.Stats      `json:"stats"`
	Delta   mogul.DeltaStats `json:"delta"`
}

// ownerResponse answers /dist/owner: the in-database ranking plus the
// query item's stored vector and the owning shard's affinity to it —
// everything a coordinator needs before probing the other shards.
// Version is read before the search, so a mutation landing mid-search
// yields a stale stamp, never one claiming post-mutation answers.
type ownerResponse struct {
	Version  uint64         `json:"version"`
	Answers  []serve.Answer `json:"answers"`
	Vector   []float64      `json:"vector"`
	Affinity float64        `json:"affinity"`
}

// vectorResponse answers /dist/vector (with the shard's kernel affinity
// to the query) and /dist/set (without).
type vectorResponse struct {
	Version  uint64         `json:"version"`
	Answers  []serve.Answer `json:"answers"`
	Affinity float64        `json:"affinity,omitempty"`
}

// aliveReply answers /dist/alive: the liveness map a coordinator
// compaction renumbers around.
type aliveReply struct {
	Dead    []int  `json:"dead"`
	IDSpace int    `json:"id_space"`
	Version uint64 `json:"version"`
}

// truncateRequest is the body of POST /dist/truncate.
type truncateRequest struct {
	UpTo uint64 `json:"up_to"`
}

// appendReply appends a /dist search reply as json.Marshal of
// ownerResponse (owner) or vectorResponse (not owner, vec unused) would
// write it, with the newline Encoder adds; res is rendered without
// labels. On a NaN or ±Inf score, vector element or affinity it returns
// dst as it was and an error wrapping jsonwire.ErrNonFinite.
func appendReply(dst []byte, owner bool, ver uint64, res []mogul.Result, vec []float64, aff float64) ([]byte, error) {
	b := strconv.AppendUint(append(dst, `{"version":`...), ver, 10)
	b, err := jsonwire.AppendRows(append(b, `,"answers":`...), res, nil)
	if err == nil && owner {
		b, err = jsonwire.AppendFloats(append(b, `,"vector":`...), vec)
	}
	// vectorResponse omits a zero affinity.
	if err == nil && (owner || aff != 0) {
		b, err = jsonwire.AppendFinite(append(b, `,"affinity":`...), aff, "affinity")
	}
	if err != nil {
		return dst, err
	}
	return append(b, '}', '\n'), nil
}

// appendBound appends the /dist/bound reply — the shard's probe bound,
// its balls as two flat arrays, Dim centre coordinates per radius — as
// json.Marshal of a struct with the fields dim, sigma, s_max, centres
// and radii would write it, with the newline Encoder adds. A shard whose
// engine derives no bound answers 404 instead. On a NaN or ±Inf it
// returns dst as it was and an error wrapping jsonwire.ErrNonFinite.
func appendBound(dst []byte, pb *mogul.ProbeBound) ([]byte, error) {
	b := strconv.AppendInt(append(dst, `{"dim":`...), int64(pb.Dim), 10)
	b, err := jsonwire.AppendFinite(append(b, `,"sigma":`...), pb.Sigma, "sigma")
	if err == nil {
		b, err = jsonwire.AppendFinite(append(b, `,"s_max":`...), pb.SMax, "s_max")
	}
	if err == nil {
		b, err = jsonwire.AppendFloats(append(b, `,"centres":`...), pb.Centres)
	}
	if err == nil {
		b, err = jsonwire.AppendFloats(append(b, `,"radii":`...), pb.Radii)
	}
	if err != nil {
		return dst, err
	}
	return append(b, '}', '\n'), nil
}

// scanBound reads a /dist/bound reply in appendBound's form — and
// nothing else — into a probe bound whose balls are consistent: a
// positive dimension and Dim centre coordinates per radius.
func scanBound(b []byte) (*mogul.ProbeBound, bool) {
	var pb mogul.ProbeBound
	i, ok := jsonwire.Expect(b, 0, `{"dim":`)
	if !ok {
		return nil, false
	}
	if pb.Dim, i, ok = jsonwire.ScanInt(b, i); !ok || pb.Dim <= 0 {
		return nil, false
	}
	for _, f := range []struct {
		key string
		v   *float64
	}{{`,"sigma":`, &pb.Sigma}, {`,"s_max":`, &pb.SMax}} {
		if i, ok = jsonwire.Expect(b, i, f.key); !ok {
			return nil, false
		}
		if *f.v, i, ok = jsonwire.ScanFloat(b, i); !ok {
			return nil, false
		}
	}
	if i, ok = jsonwire.Expect(b, i, `,"centres":`); !ok {
		return nil, false
	}
	if pb.Centres, i = jsonwire.ScanFloats(b, i); pb.Centres == nil {
		return nil, false
	}
	if i, ok = jsonwire.Expect(b, i, `,"radii":`); !ok {
		return nil, false
	}
	if pb.Radii, i = jsonwire.ScanFloats(b, i); pb.Radii == nil || len(pb.Centres) != pb.Dim*len(pb.Radii) {
		return nil, false
	}
	if i, ok = jsonwire.Expect(b, i, "}"); !ok || jsonwire.SkipSpace(b, i) != len(b) {
		return nil, false
	}
	return &pb, true
}

// searchReply is a /dist search reply as Client keeps it.
type searchReply struct {
	res []mogul.Result
	vec []float64
	aff float64
}

// errNotCanonical is a /dist search reply scan declines. Every shard
// writes these replies with appendReply, in the one form scan takes.
var errNotCanonical = errors.New("dist: /dist reply not in canonical form")

// decode reads an ownerResponse (owner) or a vectorResponse in
// appendReply's form. What it keeps is copied out of data.
func (r *searchReply) decode(data []byte, owner bool) error {
	if !r.scan(data, owner) {
		return errNotCanonical
	}
	return nil
}

// scan is decode's one-pass reader. It takes appendReply's canonical form —
// keys in declaration order, no whitespace outside the number arrays,
// "affinity" where appendReply writes it or with a zero, then the
// newline — and reports false, leaving r as it was, on anything else: a
// null other than a nil vector's, a label, an escaped, duplicate,
// case-folded or unknown key, a number out of its type's range.
// json.Unmarshal reads the same values from every body scan takes; a
// version is checked as a uint64 and dropped, as Client drops it.
func (r *searchReply) scan(b []byte, owner bool) bool {
	i, ok := jsonwire.Expect(b, 0, `{"version":`)
	if !ok {
		return false
	}
	if _, i, ok = jsonwire.ScanUint(b, i); !ok {
		return false
	}
	if i, ok = jsonwire.Expect(b, i, `,"answers":`); !ok {
		return false
	}
	var out searchReply
	if out.res, i = jsonwire.ScanRows(b, i); out.res == nil {
		return false
	}
	if owner {
		if i, ok = jsonwire.Expect(b, i, `,"vector":`); !ok {
			return false
		}
		if j, null := jsonwire.Expect(b, i, "null"); null {
			i = j
		} else if out.vec, i = jsonwire.ScanFloats(b, i); out.vec == nil {
			return false
		}
	}
	if j, ok := jsonwire.Expect(b, i, `,"affinity":`); ok {
		if out.aff, i, ok = jsonwire.ScanFloat(b, j); !ok {
			return false
		}
	} else if owner {
		return false
	}
	if i, ok = jsonwire.Expect(b, i, "}"); !ok || jsonwire.SkipSpace(b, i) != len(b) {
		return false
	}
	*r = out
	return true
}

// appendVectorQuery appends the /dist/vector request body as json.Marshal
// of serve.VectorQuery{Vector: q, K: k} would write it; a non-finite
// element is an error.
func appendVectorQuery(b []byte, q []float64, k int) ([]byte, error) {
	b, err := jsonwire.AppendFloats(append(b, `{"vector":`...), q)
	if err != nil {
		return nil, err
	}
	b = strconv.AppendInt(append(b, `,"k":`...), int64(k), 10)
	return append(b, '}'), nil
}
