// Command emserve serves entity resolution over HTTP: a durable
// graphkeys.Matcher behind the internal/serve surface — point reads,
// provenance explanations, writes applied before they are answered, and
// SSE streams of merge/split events.
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
//	POST /apply           apply mutation deltas (JSON) in order; one outcome each
//	GET  /subscribe       SSE merge/split event stream (?from= resumes)
//	GET  /seq             current sequence number
//	GET  /healthz /readyz liveness; readiness (503 once shutdown drains)
//	GET  /debug/state     seq, snapshot and WAL since it, last failed /apply, SSE buffers
//	GET  /metrics /vars /events   the matcher's observability surface
//
// On SIGINT/SIGTERM /apply and /readyz turn 503, the WAL snapshots
// (durable mode) and closes, and in-flight requests finish. A write is
// logged before it is acknowledged, so a graceful shutdown loses none.
//
// emserve logs to stderr through log/slog, one key=value line per
// event: start-up ("seeded" for a fresh directory, "resumed; graph
// file ignored" when -graph meets a resumed one, "matcher ready" with
// its seq and what each phase cost), "listening", "shutting down", and
// errors.
//
// emserve is the one command that owns a WAL directory; emrun matches
// in memory only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
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
		ring      = flag.Int("ring", serve.DefaultEventRing, "SSE replay ring capacity (events)")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful-shutdown request drain timeout")
	)
	flag.Parse()
	if *keysPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	kf, err := os.Open(*keysPath)
	if err != nil {
		fatal("open keys", err)
	}
	ks, err := graphkeys.ParseKeysFrom(kf)
	kf.Close()
	if err != nil {
		fatal("parse keys", err)
	}

	opts := graphkeys.Options{Durability: graphkeys.DurabilityAppend}
	if *fsync {
		opts.Durability = graphkeys.DurabilityFsync
	}
	m, paid, err := openMatcher(*walDir, *graphPath, ks, opts)
	if err != nil {
		fatal("open matcher", err)
	}
	slog.Info("matcher ready", "triples", m.Graph().NumTriples(), "entities", m.Graph().NumEntities(),
		"seq", m.Seq(), "startup", paid)

	srv := serve.New(m, serve.Options{EventRing: *ring})
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	httpSrv := newHTTPServer(*addr, mux)

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-done
		slog.Info("shutting down", "signal", sig.String(), "seq", m.Seq())
		// Close the serving layer first: /apply refuses, SSE streams end
		// (so Shutdown is not held open by them), the WAL snapshots and
		// closes. Then let in-flight requests finish.
		if err := srv.Close(); err != nil {
			slog.Error("close", "err", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			slog.Error("shutdown", "err", err)
		}
	}()

	slog.Info("listening", "addr", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listen", err)
	}
}

// fatal logs err as what failed and exits non-zero.
func fatal(what string, err error) {
	slog.Error(what, "err", err)
	os.Exit(1)
}

// readHeaderTimeout bounds how long a connection may take to send its
// request line and headers, so a client that opens connections and
// trickles bytes into them cannot hold a goroutine and a descriptor each
// indefinitely. There is deliberately no IdleTimeout: clients keep
// connections alive across idle spells (the repository benchmark does,
// between its stages), and a POST on a connection the server has closed
// fails instead of being retried.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer is emserve's http.Server over handler.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
}

// startup is what openMatcher paid, phase by phase; a phase that did
// not run stays zero.
type startup struct {
	load     time.Duration // parsing the graph file
	open     time.Duration // OpenMatcher: snapshot load, its chase, WAL replay
	chase    time.Duration // the one chase of the loaded graph (NewMatcher, or inside SeedMatcher)
	snapshot time.Duration // SeedMatcher publishing graph and pairs as the snapshot at seq 1
}

// LogValue logs the phases as one group of millisecond attributes.
func (s startup) LogValue() slog.Value {
	return slog.GroupValue(
		slog.Int64("graph_load_ms", s.load.Milliseconds()),
		slog.Int64("open_ms", s.open.Milliseconds()), // snapshot load, its chase and WAL replay
		slog.Int64("chase_ms", s.chase.Milliseconds()),
		slog.Int64("snapshot_write_ms", s.snapshot.Milliseconds()))
}

// openMatcher opens the durable matcher, seeding a fresh directory from
// the graph file, or builds an in-memory one. Fresh is seq 0: a
// directory whose every entity was removed through /apply is not
// re-seeded, and a graph file given for a resumed directory is logged
// as ignored. It is the one caller of OpenMatcher and SeedMatcher under
// cmd/ (TestOneDurableProcess).
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
	if err != nil || graphPath == "" {
		return m, paid, err
	}
	if m.Seq() > 0 {
		slog.Info("resumed; graph file ignored", "wal", walDir, "seq", m.Seq(), "graph", graphPath)
		return m, paid, nil
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
	slog.Info("seeded", "wal", walDir, "seq", m.Seq())
	return m, paid, nil
}
