// Package disttest boots in-process Mogul clusters for testing the
// distributed layer: N shard servers on loopback listeners, remote
// clients against them, and a coordinator fanning out over the set —
// all inside one test process, so equivalence suites can pin the
// cluster's rankings against an in-process oracle, and chaos suites
// can inject faults at the transport seam without touching a real
// network.
package disttest

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/serve"
)

// ClusterConfig shapes a test cluster.
type ClusterConfig struct {
	// Shards is the shard-server count (default 3).
	Shards int
	// Points is the initial dataset, split contiguously across shards
	// with the exact BuildSharded recipe (required).
	Points []mogul.Vector
	// Build options for every shard (one sigma is pinned across the
	// set automatically when unset).
	Build mogul.Options
	// Serve configures each shard's serving layer (zero value: no
	// cache, no batching, default backpressure).
	Serve serve.Options
	// Client configures the per-shard remote clients. Tests usually
	// shorten Timeout/Backoff; Transport is overridden per shard by
	// the cluster's fault injectors.
	Client dist.ClientOptions
	// Coord configures the coordinator's fan-out.
	Coord dist.CoordOptions
}

// Cluster is a booted loopback cluster: per-shard servers, the fault
// injectors wrapping each shard's transport, remote clients, and a
// coordinator over them.
type Cluster struct {
	// Coord fans out over all shards through remote clients.
	Coord *dist.Coordinator
	// Servers holds each shard's HTTP server (index via .Index()).
	Servers []Server
	// Clients holds the per-shard remote clients the coordinator uses.
	Clients []*dist.Client
	// Faults holds each shard's fault injector; Faults[i] shapes every
	// request to shard i.
	Faults []*Faults
	// Partition lists each shard's global ids in local order.
	Partition [][]int

	https []*httptest.Server
}

// Server is one booted shard server with the graph index it serves
// under its concrete type (the harness builds graph shards; the server
// itself holds any dist.ShardIndex).
type Server struct {
	*dist.ShardServer
	ix *mogul.Index
}

// Index returns the served index.
func (s Server) Index() *mogul.Index { return s.ix }

// NewCluster boots a cluster and registers its teardown with t: shard
// servers close, clients drop pooled connections, listeners stop —
// leaving no goroutines behind (the leak checks in the chaos suite
// depend on this).
func NewCluster(t testing.TB, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	idxs, partition, err := dist.BuildShardIndexes(cfg.Points, cfg.Build, cfg.Shards)
	if err != nil {
		t.Fatalf("disttest: building shards: %v", err)
	}
	c := &Cluster{Partition: partition}
	shards := make([]dist.Shard, cfg.Shards)
	for i, ix := range idxs {
		shards[i] = dist.Shard{Replicas: []dist.Backend{c.AddReplica(t, ix, cfg.Serve, cfg.Client)}}
	}
	coord, err := dist.NewCoordinator(shards, partition, cfg.Coord)
	if err != nil {
		c.shutdown()
		t.Fatalf("disttest: building coordinator: %v", err)
	}
	c.Coord = coord
	t.Cleanup(c.shutdown)
	return c
}

// shutdown tears the cluster down in dependency order.
func (c *Cluster) shutdown() {
	for _, cl := range c.Clients {
		cl.CloseIdleConnections()
	}
	for _, hs := range c.https {
		hs.Close()
	}
	for _, s := range c.Servers {
		s.Close()
	}
}

// AddReplica boots a server + client around an index, behind a fault
// injector of their own, and registers them for cluster teardown —
// how NewCluster boots each shard. Called on a booted cluster it does
// NOT update the coordinator's shard wiring, which is fixed at
// construction: that use is for replication tests that drive a
// Replicator against the new node directly.
func (c *Cluster) AddReplica(t testing.TB, ix *mogul.Index, serveOpts serve.Options, copts dist.ClientOptions) *dist.Client {
	t.Helper()
	srv := dist.NewShardServer(ix, serveOpts)
	hs := httptest.NewServer(srv)
	faults := &Faults{next: hs.Client().Transport}
	copts.Transport = faults
	cl := dist.NewClient(hs.URL, copts)
	c.Servers = append(c.Servers, Server{srv, ix})
	c.https = append(c.https, hs)
	c.Faults = append(c.Faults, faults)
	c.Clients = append(c.Clients, cl)
	return cl
}

// errInjected marks failures manufactured by the harness.
var errInjected = errors.New("disttest: injected fault")

// IsInjected reports whether an error chain contains a harness fault.
func IsInjected(err error) bool { return errors.Is(err, errInjected) }

// Faults is a fault-injecting http.RoundTripper wrapping a real
// transport. All knobs are safe for concurrent use and take effect
// immediately — a chaos loop flips them while traffic is in flight.
//
// Fault order per request: partition check, drop check, latency,
// then the real round trip, then the mid-body reset wrapper.
type Faults struct {
	mu sync.Mutex
	// dropEvery drops request number n when n%dropEvery == 0 (0: off).
	dropEvery int
	// partitioned fails every request while set.
	partitioned bool
	// latency delays every request before it reaches the transport.
	latency time.Duration
	// resetAfter truncates response bodies after this many bytes with
	// a connection-reset error (0: off).
	resetAfter int
	// count numbers requests for dropEvery.
	count int

	next http.RoundTripper
}

// Partition severs the shard: every request fails immediately with an
// injected error until Heal.
func (f *Faults) Partition() { f.mu.Lock(); f.partitioned = true; f.mu.Unlock() }

// Heal reconnects a partitioned shard.
func (f *Faults) Heal() { f.mu.Lock(); f.partitioned = false; f.mu.Unlock() }

// DropEvery drops every n-th request (n <= 0 disables).
func (f *Faults) DropEvery(n int) { f.mu.Lock(); f.dropEvery = n; f.count = 0; f.mu.Unlock() }

// Latency delays every request by d before it is sent.
func (f *Faults) Latency(d time.Duration) { f.mu.Lock(); f.latency = d; f.mu.Unlock() }

// ResetAfter makes every response body fail with a mid-body
// connection reset after n bytes (n <= 0 disables).
func (f *Faults) ResetAfter(n int) { f.mu.Lock(); f.resetAfter = n; f.mu.Unlock() }

// Clear removes all injected faults.
func (f *Faults) Clear() {
	f.mu.Lock()
	f.dropEvery, f.partitioned, f.latency, f.resetAfter = 0, false, 0, 0
	f.mu.Unlock()
}

// RoundTrip implements http.RoundTripper with the configured faults.
func (f *Faults) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	partitioned := f.partitioned
	latency := f.latency
	resetAfter := f.resetAfter
	drop := false
	if f.dropEvery > 0 {
		f.count++
		drop = f.count%f.dropEvery == 0
	}
	f.mu.Unlock()

	if partitioned {
		return nil, fmt.Errorf("%w: partitioned from %s", errInjected, req.URL.Host)
	}
	if drop {
		return nil, fmt.Errorf("%w: dropped request to %s", errInjected, req.URL.Path)
	}
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := f.next.RoundTrip(req)
	if err != nil || resetAfter <= 0 {
		return resp, err
	}
	resp.Body = &resettingBody{rc: resp.Body, remaining: resetAfter}
	return resp, nil
}

// resettingBody fails mid-stream after a byte budget, simulating a
// connection reset while the response body is in flight — the status
// line arrived fine, the payload did not.
type resettingBody struct {
	rc        io.ReadCloser
	remaining int
}

func (b *resettingBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("%w: connection reset mid-body", errInjected)
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err == io.EOF {
		return n, err
	}
	if b.remaining <= 0 && err == nil {
		err = fmt.Errorf("%w: connection reset mid-body", errInjected)
	}
	return n, err
}

func (b *resettingBody) Close() error { return b.rc.Close() }
