package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mogul"
	"mogul/internal/jsonwire"
	"mogul/serve"
)

// ClientOptions tunes one remote-shard client. The zero value is
// production-sane: 5s per-request timeout, 2 retries on idempotent
// reads with 50ms exponential backoff, a shared keep-alive transport.
type ClientOptions struct {
	// Timeout bounds each HTTP attempt (not the whole retry loop);
	// default 5s.
	Timeout time.Duration
	// Retries is the number of EXTRA attempts for idempotent reads
	// after the first fails with a retryable error (5xx, 429, timeout,
	// transport error); default 2. Mutations never retry regardless —
	// an Insert whose response was lost may have landed, and retrying
	// would apply it twice.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt;
	// default 50ms. The wait respects context cancellation.
	Backoff time.Duration
	// Transport overrides the HTTP transport (the fault-injection
	// harness hooks in here); nil uses a dedicated keep-alive
	// transport per client.
	Transport http.RoundTripper
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	return o
}

// Client speaks to one ShardServer: it is the remote Backend a
// Coordinator fans out to — each method encodes one request, and
// decodes one reply, of the route ShardServer serves that same Backend
// method on — plus the replication calls a follower needs (LogEntries,
// TruncateLog, Snapshot).
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions
}

// NewClient builds a client for the ShardServer at base (e.g.
// "http://10.0.0.7:7601"). Connections are pooled and reused across
// requests; call CloseIdleConnections when discarding the client.
func NewClient(base string, opts ClientOptions) *Client {
	o := opts.withDefaults()
	tr := o.Transport
	if tr == nil {
		tr = &http.Transport{MaxIdleConnsPerHost: 16}
	}
	return &Client{
		base: base,
		hc:   &http.Client{Transport: tr},
		opts: o,
	}
}

// Base returns the server URL this client targets.
func (c *Client) Base() string { return c.base }

// CloseIdleConnections drops pooled keep-alive connections.
func (c *Client) CloseIdleConnections() { c.hc.CloseIdleConnections() }

// errGone marks a 410 response (log truncated past the cursor).
var errGone = errors.New("dist: gone")

// httpError is a non-2xx response with the server's decoded message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("dist: server returned %d: %s", e.status, e.msg)
}

// retryable reports whether an attempt's failure may be transient:
// transport errors and timeouts (the response never arrived), 5xx
// (the server failed), and 429 (the server shed load and asked for a
// retry). 4xx other than 429 is a permanent request defect.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500 || he.status == http.StatusTooManyRequests
	}
	return !errors.Is(err, errGone)
}

// do runs one request against the shard, retrying per the policy when
// idempotent. On 2xx the response body is in dst and its headers are
// returned.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool, dst *bytes.Buffer) (http.Header, error) {
	attempts := 1
	if idempotent {
		attempts += c.opts.Retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// Exponential backoff before each retry, abandoned the
			// moment the caller's context ends — a cancelled fan-out
			// must not keep a goroutine sleeping toward a dead shard.
			delay := c.opts.Backoff << (attempt - 1)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		hdr, err := c.attempt(ctx, method, path, body, dst)
		if err == nil {
			return hdr, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !idempotent || !retryable(err) {
			break
		}
	}
	return nil, lastErr
}

// attempt is one HTTP round trip under the per-request timeout; the
// response body replaces dst's contents.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, dst *bytes.Buffer) (http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	dst.Reset()
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		// A mid-body reset: the response is unusable even on 200.
		return nil, fmt.Errorf("dist: reading response body: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		msg := decodeErrorBody(dst.Bytes())
		if resp.StatusCode == http.StatusGone {
			return nil, fmt.Errorf("%w: %s", errGone, msg)
		}
		return nil, &httpError{status: resp.StatusCode, msg: msg}
	}
	return resp.Header, nil
}

// decodeErrorBody extracts {"error": msg}; raw body as fallback.
func decodeErrorBody(data []byte) string {
	var e serve.ErrorReply
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// call runs one request and hands its 2xx body to decode, which must
// copy out what it keeps: the body is read into a pooled buffer
// (jsonwire.GetReadBuf) that is reused once decode returns. A nil decode
// ignores the body.
func (c *Client) call(ctx context.Context, method, path string, body []byte, idempotent bool, decode func([]byte) error) error {
	buf := jsonwire.GetReadBuf()
	defer jsonwire.PutReadBuf(buf)
	if _, err := c.do(ctx, method, path, body, idempotent, buf); err != nil || decode == nil {
		return err
	}
	return decode(buf.Bytes())
}

// getJSON runs an idempotent GET and decodes the JSON response.
func (c *Client) getJSON(ctx context.Context, path string, out interface{}) error {
	return c.call(ctx, http.MethodGet, path, nil, true, func(data []byte) error { return json.Unmarshal(data, out) })
}

// postJSON runs a POST carrying a JSON body, decoding the reply into out
// unless it is nil; idempotent selects the read retry policy.
func (c *Client) postJSON(ctx context.Context, path string, in, out interface{}, idempotent bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	var decode func([]byte) error
	if out != nil {
		decode = func(data []byte) error { return json.Unmarshal(data, out) }
	}
	return c.call(ctx, http.MethodPost, path, body, idempotent, decode)
}

// search runs one idempotent /dist search (a vector or set search is a
// read that happens to POST) and decodes its reply.
func (c *Client) search(ctx context.Context, method, path string, body []byte, owner bool) (searchReply, error) {
	var r searchReply
	err := c.call(ctx, method, path, body, true, func(data []byte) error { return r.decode(data, owner) })
	return r, err
}

// --- the Backend surface ---

// InfoCtx fetches the shard's state snapshot.
func (c *Client) InfoCtx(ctx context.Context) (Info, error) {
	var info Info
	err := c.getJSON(ctx, "/dist/info", &info)
	return info, err
}

// OwnerSearch runs the in-database owner-shard half of a distributed
// TopK: the shard-local ranking plus the query item's vector and the
// owning shard's affinity to it.
func (c *Client) OwnerSearch(ctx context.Context, local, k int) ([]mogul.Result, mogul.Vector, float64, error) {
	path := "/dist/owner?id=" + strconv.Itoa(local) + "&k=" + strconv.Itoa(k)
	r, err := c.search(ctx, http.MethodGet, path, nil, true)
	if err != nil {
		return nil, nil, 0, err
	}
	return r.res, r.vec, r.aff, nil
}

// VectorSearch probes the shard out-of-sample, returning the local
// ranking and the shard's raw kernel affinity to the query.
func (c *Client) VectorSearch(ctx context.Context, q mogul.Vector, k int) ([]mogul.Result, float64, error) {
	body, err := appendVectorQuery(make([]byte, 0, 32+24*len(q)), q, k)
	if err != nil {
		return nil, 0, err
	}
	r, err := c.search(ctx, http.MethodPost, "/dist/vector", body, false)
	if err != nil {
		return nil, 0, err
	}
	return r.res, r.aff, nil
}

// SetSearch runs a weighted multi-seed search over shard-local ids.
func (c *Client) SetSearch(ctx context.Context, locals []int, weight float64, k int) ([]mogul.Result, error) {
	body, err := json.Marshal(serve.SetQuery{IDs: locals, Weight: weight, K: k})
	if err != nil {
		return nil, err
	}
	r, err := c.search(ctx, http.MethodPost, "/dist/set", body, false)
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// NeighborsCtx fetches an item's graph context with cancellation.
func (c *Client) NeighborsCtx(ctx context.Context, local int) ([]int, []float64, error) {
	var resp serve.ItemReply
	if err := c.getJSON(ctx, "/item/"+strconv.Itoa(local), &resp); err != nil {
		return nil, nil, err
	}
	return resp.Neighbors, resp.NeighborWeights, nil
}

// InsertCtx routes one insert to the shard; never retried.
func (c *Client) InsertCtx(ctx context.Context, v mogul.Vector) (int, error) {
	var resp serve.InsertReply
	if err := c.postJSON(ctx, "/insert", serve.InsertRequest{Vector: v}, &resp, false); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// DeleteCtx routes one delete to the shard; never retried.
func (c *Client) DeleteCtx(ctx context.Context, local int) error {
	return c.postJSON(ctx, "/delete", serve.DeleteRequest{ID: &local}, nil, false)
}

// CompactCtx folds the shard's delta layer in; never retried.
func (c *Client) CompactCtx(ctx context.Context) error {
	return c.postJSON(ctx, "/compact", struct{}{}, nil, false)
}

// AliveMap snapshots the shard's liveness: the id space size and the
// dead local ids — what a coordinator needs to renumber its maps
// around a compaction.
func (c *Client) AliveMap(ctx context.Context) (space int, dead []int, err error) {
	var resp aliveReply
	if err := c.getJSON(ctx, "/dist/alive", &resp); err != nil {
		return 0, nil, err
	}
	return resp.IDSpace, resp.Dead, nil
}

// BoundCtx fetches the shard's probe bound. A 404 — an engine that
// derives none, or a server that predates the route — is no bound, not
// an error.
func (c *Client) BoundCtx(ctx context.Context) (*mogul.ProbeBound, error) {
	var pb *mogul.ProbeBound
	err := c.call(ctx, http.MethodGet, "/dist/bound", nil, true, func(data []byte) error {
		var ok bool
		if pb, ok = scanBound(data); !ok {
			return errNotCanonical
		}
		return nil
	})
	var he *httpError
	if errors.As(err, &he) && he.status == http.StatusNotFound {
		return nil, nil
	}
	return pb, err
}

// LogEntries tails the shard's replication log past the cursor. The
// second return mirrors mogul.Index.EntriesSince: false means the log
// was truncated past the cursor (the server answered 410) and the
// follower must bootstrap from Snapshot.
func (c *Client) LogEntries(ctx context.Context, since uint64) ([]mogul.LogEntry, bool, error) {
	var data bytes.Buffer
	if _, err := c.do(ctx, http.MethodGet, "/dist/log?since="+strconv.FormatUint(since, 10), nil, true, &data); err != nil {
		if errors.Is(err, errGone) {
			return nil, false, nil
		}
		return nil, false, err
	}
	entries, err := mogul.ReadLogEntries(&data)
	if err != nil {
		return nil, false, err
	}
	return entries, true, nil
}

// TruncateLog acknowledges entries through upTo so the shard can drop
// them.
func (c *Client) TruncateLog(ctx context.Context, upTo uint64) error {
	return c.postJSON(ctx, "/dist/truncate", truncateRequest{UpTo: upTo}, nil, false)
}

// Snapshot fetches a consistent (index, version) pair: the returned
// version is exactly the state the stream serializes, so a follower
// loading it resumes the log at that cursor.
func (c *Client) Snapshot(ctx context.Context) (ShardIndex, uint64, error) {
	var data bytes.Buffer
	hdr, err := c.do(ctx, http.MethodGet, "/dist/snapshot", nil, true, &data)
	if err != nil {
		return nil, 0, err
	}
	ver, err := strconv.ParseUint(hdr.Get(versionHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: snapshot missing %s header", versionHeader)
	}
	ret, err := mogul.Load(&data)
	if err != nil {
		return nil, 0, err
	}
	ix, ok := ret.(ShardIndex)
	if !ok {
		return nil, 0, fmt.Errorf("dist: snapshot is not a single-node engine (%T)", ret)
	}
	return ix, ver, nil
}
