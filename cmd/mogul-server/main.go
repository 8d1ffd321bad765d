// Command mogul-server serves Manifold Ranking search over HTTP — the
// image-retrieval-system deployment the paper's introduction
// motivates. It builds (or loads) a Mogul index once and mounts the
// serve package's production query service over it (version-keyed
// result caching, backpressure, /metrics):
//
//	mogul-datagen -dataset coil -o coil.gob
//	mogul-server -data coil.gob -save-index coil.mogul
//	mogul-server -load-index coil.mogul -addr :8080
//	curl 'localhost:8080/search?id=17&k=5'
//	curl -X POST localhost:8080/search/vector -d '{"vector":[...],"k":5}'
//	curl 'localhost:8080/metrics'
//
// With -load-index the precomputed index file (from -save-index) is
// loaded instead of rebuilding, so startup is I/O bound only: no graph
// construction, no clustering, no factorization. All handler logic
// lives in package serve; this command is flag parsing and wiring.
//
// -precision f32 builds the index with float32 bulk storage (about
// half the resident bytes per point). Saving with -save-align 4096 and
// serving with -load-index -mmap maps the file read-only instead of
// copying it onto the heap, so N server processes over one index file
// share a single physical copy of the big arrays:
//
//	mogul-server -data coil.gob -precision f32 -save-index coil.mogul -save-align 4096
//	mogul-server -load-index coil.mogul -mmap -addr :8080
//
// The same binary also runs the distributed topology (docs/DISTRIBUTED.md):
//
//	# one shard server per process (any single-node engine, -shards must be 1)
//	mogul-server -mode shard -load-index shard0.mogul -addr :9000
//	mogul-server -mode shard -load-index shard1.mogul -addr :9001
//	# coordinator fanning out over them; replicas of one shard join with |
//	mogul-server -mode coordinator -shard-urls 'http://h0:9000,http://h1:9001|http://h1b:9001' -addr :8080
//
// The coordinator derives the contiguous global-id partition from each
// shard's item count in -shard-urls order, so shard files must come
// from one dataset split in that same order (mogul-server -mode shard
// servers built via dist.BuildShardIndexes, or -save-index on slices).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/internal/diskio"
	"mogul/serve"
)

func main() {
	var (
		data      = flag.String("data", "", "dataset file (.gob from mogul-datagen, or .csv)")
		saveIndex = flag.String("save-index", "", "after building, persist the index here and exit")
		addr      = flag.String("addr", ":8080", "listen address")
		graphK    = flag.Int("graph-k", 5, "k of the k-NN graph")
		alpha     = flag.Float64("alpha", 0.99, "Manifold Ranking damping parameter")
		exact     = flag.Bool("exact", false, "serve exact scores (MogulE)")
		shards    = flag.Int("shards", 1, "partition the dataset into N shards (parallel build, fan-out search)")
		partition = flag.String("partitioner", "contiguous", "shard partitioner: contiguous or kmeans")
		engine    = flag.String("engine", "graph", "ranking engine: graph (k-NN graph index), emr (anchor-graph EMR), or spectral (truncated eigenbasis)")
		anchors   = flag.Int("anchors", 0, "emr engine: number of k-means anchors (0 = default)")
		anchorsPP = flag.Int("anchors-per-point", 0, "emr engine: anchors in each point's support (0 = default)")
		rank      = flag.Int("rank", 0, "spectral engine: retained eigenpairs (0 = default)")
		precision = flag.String("precision", "f64", "storage precision for built indexes: f64 or f32 (f32 roughly halves resident bulk-array bytes; ranking differs only by storage rounding)")
		saveAlign = flag.Int("save-align", 0, "with -save-index: pad container sections to this power-of-two byte boundary (0 = compact layout; 4096 suits -mmap serving)")
		useMmap   = flag.Bool("mmap", false, "with -load-index: serve through a read-only memory map so concurrent server processes share one physical copy of the file")

		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "query-result cache budget in bytes (0 disables)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing searches (0 = GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "max searches queued for a slot before shedding 429 (0 = 4x max-inflight)")

		mode          = flag.String("mode", "serve", "serve (single node), shard (shard server with /dist/* surface), coordinator (fan out over -shard-urls)")
		shardURLs     = flag.String("shard-urls", "", "coordinator mode: comma-separated shard base URLs; replicas of one shard joined with |")
		shardTimeout  = flag.Duration("shard-timeout", 2*time.Second, "coordinator mode: per-shard call deadline (0 = caller's context only)")
		hedgeDelay    = flag.Duration("hedge-delay", 0, "coordinator mode: hedge to the next replica after this delay (0 = failover only)")
		clientTimeout = flag.Duration("client-timeout", 5*time.Second, "coordinator mode: per-HTTP-attempt timeout to a shard")
		clientRetries = flag.Int("client-retries", 2, "coordinator mode: extra attempts for idempotent reads on retryable errors")
	)
	var indexPath string
	flag.StringVar(&indexPath, "load-index", "", "serve from a prebuilt index file (from -save-index) instead of building")
	flag.StringVar(&indexPath, "index", "", "alias for -load-index")
	flag.Parse()

	cfg := config{
		mode: *mode, engine: *engine, precision: *precision, partitioner: *partition,
		shards: *shards, exact: *exact, saveAlign: *saveAlign,
		data: *data, loadIndex: indexPath, shardURLs: *shardURLs,
	}
	if err := cfg.validate(); err != nil {
		log.Fatal("mogul-server: ", err)
	}
	prec := mogul.F64
	if *precision == "f32" {
		prec = mogul.F32
	}
	serveOpts := serve.Options{
		CacheBytes:  *cacheBytes,
		MaxInFlight: *maxInflight,
		MaxQueue:    *maxQueue,
	}

	if *mode == "coordinator" {
		runCoordinator(*addr, *shardURLs, serveOpts, dist.ClientOptions{
			Timeout: *clientTimeout,
			Retries: *clientRetries,
		}, dist.CoordOptions{
			ShardTimeout: *shardTimeout,
			HedgeDelay:   *hedgeDelay,
		})
		return
	}

	var (
		idx    mogul.Retriever
		labels []int
		err    error
	)
	if indexPath != "" {
		t0 := time.Now()
		how := "loaded"
		if *useMmap {
			// The mapping must outlive the engine; main's defer releases
			// it after the handler drains at shutdown.
			var closer io.Closer
			idx, closer, err = mogul.LoadFileMapped(indexPath)
			if err == nil {
				defer closer.Close()
			}
			how = "mapped"
		} else {
			// LoadFile sniffs the file's magic header: a plain index and a
			// sharded manifest both come back behind the Retriever surface.
			idx, err = mogul.LoadFile(indexPath)
		}
		if err != nil {
			log.Fatal("mogul-server: ", err)
		}
		log.Printf("%s index (%d items) in %v", how, idx.Len(), time.Since(t0).Round(time.Millisecond))
		// Labels may come from the dataset alongside, when given.
		if *data != "" {
			if ds, err := loadDataset(*data); err == nil && ds.Len() == idx.Len() {
				labels = ds.Labels
			}
		}
	} else {
		ds, err := loadDataset(*data)
		if err != nil {
			log.Fatal("mogul-server: ", err)
		}
		labels = ds.Labels
		opts := mogul.Options{
			GraphK:    *graphK,
			Alpha:     *alpha,
			Exact:     *exact,
			Precision: prec,
		}
		t0 := time.Now()
		if *engine == "emr" {
			e, err := mogul.BuildEMR(ds.Points, opts, mogul.EMROptions{
				NumAnchors:        *anchors,
				NumNearestAnchors: *anchorsPP,
			})
			if err != nil {
				log.Fatal("mogul-server: ", err)
			}
			idx = e
			log.Printf("built EMR engine over %d items (%d anchors) in %v",
				e.Len(), e.NumAnchors(), time.Since(t0).Round(time.Millisecond))
		} else if *engine == "spectral" {
			e, err := mogul.BuildSpectral(ds.Points, opts, mogul.SpectralOptions{Rank: *rank})
			if err != nil {
				log.Fatal("mogul-server: ", err)
			}
			idx = e
			log.Printf("built spectral engine over %d items (rank %d) in %v",
				e.Len(), e.Rank(), time.Since(t0).Round(time.Millisecond))
		} else if *shards > 1 {
			p := mogul.PartitionContiguous
			if *partition == "kmeans" {
				p = mogul.PartitionKMeans
			}
			sharded, err := mogul.BuildSharded(ds.Points, opts, mogul.ShardOptions{Shards: *shards, Partitioner: p})
			if err != nil {
				log.Fatal("mogul-server: ", err)
			}
			idx = sharded
			log.Printf("built %d shards over %d items in %v (shard sizes %v)",
				sharded.NumShards(), sharded.Len(), time.Since(t0).Round(time.Millisecond), sharded.ShardLens())
		} else {
			idx, err = mogul.BuildFromDataset(ds, opts)
			if err != nil {
				log.Fatal("mogul-server: ", err)
			}
			log.Printf("built index over %d items in %v", idx.Len(), time.Since(t0).Round(time.Millisecond))
		}
	}

	if *saveIndex != "" {
		var err error
		if *saveAlign > 0 {
			s, ok := idx.(interface{ SaveFileAligned(string, int) error })
			if !ok {
				log.Fatalf("mogul-server: -save-align is not supported for %T (the sharded manifest has no aligned layout)", idx)
			}
			err = s.SaveFileAligned(*saveIndex, *saveAlign)
		} else {
			err = idx.SaveFile(*saveIndex)
		}
		if err != nil {
			log.Fatal("mogul-server: saving index: ", err)
		}
		log.Printf("index saved to %s", *saveIndex)
		return
	}

	serveOpts.Labels = labels
	var handler interface {
		http.Handler
		Close()
	}
	if *mode == "shard" {
		// validate has vetted what gets built; what a file holds is only
		// known once it is loaded.
		shard, ok := idx.(dist.ShardIndex)
		if !ok {
			log.Fatalf("mogul-server: -mode shard needs a single-node engine, and %s holds a %T", indexPath, idx)
		}
		handler = dist.NewShardServer(shard, serveOpts)
		log.Printf("shard server: /dist/* surface enabled over %d items", shard.Len())
	} else {
		handler = serve.New(idx, serveOpts)
	}
	defer handler.Close()
	serveForever(*addr, handler)
}

// config is the flag combination validate judges.
type config struct {
	mode, engine, precision, partitioner string
	shards, saveAlign                    int
	exact                                bool
	data, loadIndex, shardURLs           string
}

// validate rejects a flag combination that cannot be served — before
// any dataset is loaded, so a build that takes minutes never ends in
// an error the flags already implied.
func (c config) validate() error {
	if c.engine != "graph" && c.engine != "emr" && c.engine != "spectral" {
		return fmt.Errorf("unknown -engine %q (want graph, emr, or spectral)", c.engine)
	}
	if c.precision != "f64" && c.precision != "f32" {
		return fmt.Errorf("unknown -precision %q (want f64 or f32)", c.precision)
	}
	switch c.mode {
	case "coordinator":
		if c.shardURLs == "" {
			return errors.New("-mode coordinator needs -shard-urls")
		}
		return nil // a coordinator builds and loads nothing: the rest does not apply
	case "serve", "shard":
	default:
		return fmt.Errorf("unknown -mode %q (want serve, shard, or coordinator)", c.mode)
	}
	if c.saveAlign < 0 || c.saveAlign&(c.saveAlign-1) != 0 {
		return fmt.Errorf("-save-align %d is not a power of two", c.saveAlign)
	}
	if c.loadIndex != "" {
		return nil // the file decides engine and sharding; the build flags are unused
	}
	if c.data == "" {
		return errors.New("provide -data or -load-index")
	}
	if c.engine != "graph" {
		if c.shards > 1 {
			return fmt.Errorf("-engine %s builds one engine over the whole dataset; use -shards 1 (this command shards the graph engine only; EMR and spectral shards are served in-process, through dist.LocalShard under a dist.Coordinator)", c.engine)
		}
		if c.exact {
			return fmt.Errorf("-engine %s serves approximate scores; -exact selects the graph engine's MogulE", c.engine)
		}
	}
	if c.mode == "shard" && c.shards > 1 {
		return fmt.Errorf("-mode shard serves one single-node engine (its /dist/* surface needs that engine's delta log and snapshot): use -shards 1, not -shards %d", c.shards)
	}
	if c.shards > 1 {
		if c.partitioner != "contiguous" && c.partitioner != "kmeans" {
			return fmt.Errorf("unknown partitioner %q (want contiguous or kmeans)", c.partitioner)
		}
		if c.saveAlign > 0 {
			return errors.New("-save-align is not supported with -shards > 1 (the sharded manifest has no aligned layout)")
		}
	}
	return nil
}

// serveForever listens on addr and serves h until SIGINT/SIGTERM,
// then drains with a 10s grace period.
func serveForever(addr string, h http.Handler) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal("mogul-server: ", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("serving Manifold Ranking search on %s", l.Addr())
	if err := serve.Run(ctx, l, h, 10*time.Second); err != nil {
		log.Fatal("mogul-server: ", err)
	}
	log.Print("shut down cleanly")
}

// runCoordinator serves the distributed read/write path: the
// coordinator over the shards in urls with the full serving layer
// (cache, batching, backpressure, metrics) mounted over it — which is
// just another mogul.Retriever as far as package serve is concerned.
func runCoordinator(addr, urls string, serveOpts serve.Options, copts dist.ClientOptions, opts dist.CoordOptions) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	coord, err := dialCoordinator(ctx, urls, copts, opts)
	cancel()
	if err != nil {
		log.Fatal("mogul-server: ", err)
	}
	srv := serve.New(coord, serveOpts)
	defer srv.Close()
	log.Printf("coordinator over %d shards, %d items", coord.NumShards(), coord.Len())
	serveForever(addr, srv)
}

// dialCoordinator assembles a coordinator from -shard-urls: one Client
// per shard URL (replicas of a shard separated by |) and the contiguous
// global-id partition derived from each shard's reported id space
// (tombstoned slots included, so every local id has a global one).
func dialCoordinator(ctx context.Context, urls string, copts dist.ClientOptions, opts dist.CoordOptions) (*dist.Coordinator, error) {
	var (
		shards    []dist.Shard
		partition [][]int
		next      int
	)
	for _, group := range strings.Split(urls, ",") {
		var replicas []dist.Backend
		var primary *dist.Client
		for _, u := range strings.Split(group, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			c := dist.NewClient(u, copts)
			if primary == nil {
				primary = c
			}
			replicas = append(replicas, c)
		}
		if primary == nil {
			return nil, fmt.Errorf("empty shard group in -shard-urls %q", urls)
		}
		info, err := primary.InfoCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("probing shard %d (%s): %w", len(shards), primary.Base(), err)
		}
		ids := make([]int, info.IDSpace)
		for i := range ids {
			ids[i] = next + i
		}
		next += info.IDSpace
		partition = append(partition, ids)
		shards = append(shards, dist.Shard{Replicas: replicas})
		log.Printf("shard %d: %s (%d replicas, %d items, version %d)",
			len(shards)-1, primary.Base(), len(replicas), info.Items, info.Version)
	}
	return dist.NewCoordinator(shards, partition, opts)
}

func loadDataset(path string) (*mogul.Dataset, error) {
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", path, err)
		}
		defer f.Close()
		return diskio.LoadCSV(f, path)
	}
	return diskio.LoadGob(path)
}
