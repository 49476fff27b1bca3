// Command emserve serves entity resolution over HTTP: a durable
// graphkeys.Matcher behind the internal/serve surface — point reads,
// provenance explanations, batched asynchronous writes, and SSE
// streams of merge/split events.
//
// Usage:
//
//	emserve -keys work.keys -wal /var/lib/emserve -addr :8080
//	emserve -keys work.keys -graph seed.graph -wal /var/lib/emserve
//	emserve -keys work.keys -addr :8080            # in-memory (no WAL)
//
// Endpoints (see the README's Serving section for the full table):
//
//	GET  /same?a=&b=      are two entities identified
//	GET  /entity?id=      canonical representative
//	GET  /entities?p=&v=  entities with attribute (p, v)
//	GET  /explain?a=&b=   witness chain for an identified pair
//	POST /apply[?wait=1]  enqueue mutation deltas (JSON)
//	GET  /subscribe       SSE merge/split event stream (?from= resumes)
//	GET  /seq             current sequence number
//	GET  /metrics /vars /events   the matcher's observability surface
//
// On SIGINT/SIGTERM the server stops accepting requests, drains the
// write queue, snapshots the WAL (durable mode) and closes the log —
// an acknowledged write is never lost by a graceful shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphkeys"
	"graphkeys/internal/serve"
)

func main() {
	var (
		keysPath  = flag.String("keys", "", "keys file (key DSL), required")
		graphPath = flag.String("graph", "", "graph file to seed a fresh matcher (text triple format)")
		walDir    = flag.String("wal", "", "durable matcher: write-ahead log directory (empty = in-memory)")
		fsync     = flag.Bool("fsync", true, "wal: fsync every WAL record")
		addr      = flag.String("addr", ":8080", "listen address")
		p         = flag.Int("p", 0, "worker parallelism (0 = GOMAXPROCS capped at 4)")
		ring      = flag.Int("ring", serve.DefaultEventRing, "SSE replay ring capacity (events)")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful-shutdown request drain timeout")
	)
	flag.Parse()
	if *keysPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	kf, err := os.Open(*keysPath)
	if err != nil {
		log.Fatal(err)
	}
	ks, err := graphkeys.ParseKeysFrom(kf)
	kf.Close()
	if err != nil {
		log.Fatal(err)
	}

	opts := graphkeys.Options{Workers: *p, Durability: graphkeys.DurabilityAppend}
	if *fsync {
		opts.Durability = graphkeys.DurabilityFsync
	}
	m, paid, err := openMatcher(*walDir, *graphPath, ks, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "emserve: matcher ready: %d triples, %d entities, seq %d (%s)\n",
		m.Graph().NumTriples(), m.Graph().NumEntities(), m.Seq(), paid)

	srv := serve.New(m, serve.Options{EventRing: *ring})
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-done
		fmt.Fprintf(os.Stderr, "emserve: %v: shutting down\n", sig)
		// Close the serving layer first: SSE streams end (so Shutdown
		// is not held open by them), the writer drains, the WAL
		// snapshots and closes. Then let in-flight point requests
		// finish.
		if err := srv.Close(); err != nil {
			log.Printf("emserve: close: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("emserve: shutdown: %v", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "emserve: listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// startup is what openMatcher paid, phase by phase; a phase that did
// not run stays zero.
type startup struct {
	load     time.Duration // parsing the graph file
	open     time.Duration // OpenMatcher: snapshot load, its chase, WAL replay
	chase    time.Duration // the one chase of the loaded graph (NewMatcher, or inside SeedMatcher)
	snapshot time.Duration // SeedMatcher publishing graph and pairs as the snapshot at seq 1
}

func (s startup) String() string {
	return fmt.Sprintf("graph load %d ms, open incl. chase and WAL replay %d ms, chase %d ms, snapshot write %d ms",
		s.load.Milliseconds(), s.open.Milliseconds(), s.chase.Milliseconds(), s.snapshot.Milliseconds())
}

// openMatcher opens the durable matcher, seeding a fresh directory from
// the graph file, or builds an in-memory one. Fresh is seq 0: a
// directory whose every entity was removed through /apply is not
// re-seeded.
func openMatcher(walDir, graphPath string, ks *graphkeys.KeySet, opts graphkeys.Options) (*graphkeys.Matcher, startup, error) {
	var paid startup
	loadGraph := func() (*graphkeys.Graph, error) {
		if graphPath == "" {
			return graphkeys.NewGraph(), nil
		}
		defer func(t0 time.Time) { paid.load = time.Since(t0) }(time.Now())
		gf, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		defer gf.Close()
		return graphkeys.LoadGraph(gf)
	}
	if walDir == "" {
		g, err := loadGraph()
		if err != nil {
			return nil, paid, err
		}
		t0 := time.Now()
		m, err := graphkeys.NewMatcher(g, ks, opts)
		paid.chase = time.Since(t0)
		return m, paid, err
	}
	t0 := time.Now()
	m, err := graphkeys.OpenMatcher(walDir, ks, opts)
	paid.open = time.Since(t0)
	if err != nil || m.Seq() > 0 || graphPath == "" {
		return m, paid, err
	}
	if err := m.Close(); err != nil {
		return nil, paid, err
	}
	g, err := loadGraph()
	if err != nil {
		return nil, paid, err
	}
	t0 = time.Now()
	m, err = graphkeys.SeedMatcher(walDir, g, ks, opts)
	if err != nil {
		return nil, paid, fmt.Errorf("emserve: seeding %s from %s: %v", walDir, graphPath, err)
	}
	paid.snapshot = time.Duration(m.Metrics().Histograms["wal.snapshot_ns"].Sum)
	paid.chase = time.Since(t0) - paid.snapshot
	fmt.Fprintf(os.Stderr, "emserve: seeded %s: snapshot at seq %d\n", walDir, m.Seq())
	return m, paid, nil
}
