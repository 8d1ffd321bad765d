package serve

// The wire: every request and reply shape that is spoken from both ends
// inside this module — decoded or encoded by a handler here or in
// dist.ShardServer, and by dist.Client on the other side — declared
// once. The JSON field names are the protocol: processes built from
// different commits interoperate as long as they do not change. Replies
// that once marshalled from a map declare their fields in that
// encoding's sorted key order, so the bytes did not change either.
// docs/SERVING.md, "Routes and wire", maps each type to its routes.

// Answer is one result row of every search reply: the item id (global on
// a serve route, shard-local on /dist/*), its float64 score — encoded in
// shortest round-trip form, so it crosses the wire bit-exactly — and its
// label where the server holds one.
type Answer struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
	Label *int    `json:"label,omitempty"`
}

// ErrorReply is the body of every 4xx and 5xx (WriteError).
type ErrorReply struct {
	Error string `json:"error"`
}

// VectorQuery is the body of POST /search/vector and POST /dist/vector.
type VectorQuery struct {
	Vector []float64 `json:"vector"`
	K      int       `json:"k"`
}

// SetQuery is the body of POST /search/set, POST /search/batch and POST
// /dist/set. Weight is the per-seed query weight a coordinator assigns;
// only /dist/set reads it.
type SetQuery struct {
	IDs    []int   `json:"ids"`
	Weight float64 `json:"weight,omitempty"`
	K      int     `json:"k"`
}

// InsertRequest is the body of POST /insert.
type InsertRequest struct {
	Vector []float64 `json:"vector"`
}

// InsertReply answers POST /insert.
type InsertReply struct {
	DeltaItems int    `json:"delta_items"`
	ID         int    `json:"id"`
	Items      int    `json:"items"`
	Version    uint64 `json:"version"`
}

// DeleteRequest is the body of POST /delete; a nil ID is a body that
// did not carry one.
type DeleteRequest struct {
	ID *int `json:"id"`
}

// ItemReply answers GET /item/{id}.
type ItemReply struct {
	Item            int       `json:"item"`
	Label           *int      `json:"label,omitempty"`
	NeighborWeights []float64 `json:"neighbor_weights"`
	Neighbors       []int     `json:"neighbors"`
}
