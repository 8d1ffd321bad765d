package dist

import (
	"mogul"
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

func toWire(res []mogul.Result) []serve.Answer {
	out := make([]serve.Answer, len(res))
	for i, r := range res {
		out[i] = serve.Answer{Item: r.Node, Score: r.Score}
	}
	return out
}

func fromWire(rows []serve.Answer) []mogul.Result {
	out := make([]mogul.Result, len(rows))
	for i, r := range rows {
		out[i] = mogul.Result{Node: r.Item, Score: r.Score}
	}
	return out
}
