// Command emrun runs entity matching on a graph file against a keys
// file and prints the identified entity pairs (chase(G, Σ)).
//
// Usage:
//
//	emrun -graph work.graph -keys work.keys -engine emoptvc -p 8
//
// The graph file is the tab-separated triple format of emgen/LoadGraph;
// the keys file is the key DSL. Engines: chase, pchase (the parallel
// chase), emmr, emvf2mr, emoptmr, emvc, emoptvc.
//
// With -incremental, emrun instead replays a mutation workload through
// the stateful graphkeys.Matcher: each round removes a random batch of
// -delta × |G| triples and then re-adds it, reporting per-delta repair
// time and the match churn, against the one-off cost of the initial
// full chase. -verify re-runs the full chase after every delta and
// fails on divergence.
//
// With -wal DIR the matcher is durable: it opens (or creates) the
// write-ahead log in DIR, seeds it from the graph file when fresh (the
// graph becomes the snapshot at seq 1), and logs every applied delta;
// -snapshot compacts the log on exit. With -replay DIR emrun
// reconstructs the matcher purely from DIR (no graph file needed) and
// prints the recovered pairs — pass -graph too to verify the
// reconstruction against a reference graph file.
//
// With -metrics ADDR emrun serves the matcher's live instruments over
// HTTP while it runs: Prometheus text at /metrics, a JSON snapshot at
// /vars, recent phase spans at /events, and pprof under /debug/pprof/.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"reflect"
	"strings"
	"time"

	"graphkeys"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (text triple format)")
		keysPath  = flag.String("keys", "", "keys file (key DSL)")
		engine    = flag.String("engine", "emoptvc", "chase | pchase | emmr | emvf2mr | emoptmr | emvc | emoptvc")
		p         = flag.Int("p", 4, "number of workers")
		classes   = flag.Bool("classes", false, "print equivalence classes instead of pairs")
		validate  = flag.Bool("validate", false, "check key satisfaction G |= Σ instead of matching")

		incremental = flag.Bool("incremental", false, "replay a mutation workload through the incremental Matcher")
		rounds      = flag.Int("rounds", 5, "incremental: number of remove/re-add rounds")
		deltaFrac   = flag.Float64("delta", 0.01, "incremental: fraction of triples mutated per delta")
		mutSeed     = flag.Int64("mutseed", 1, "incremental: mutation RNG seed")
		verify      = flag.Bool("verify", false, "incremental: check every delta against a full re-chase")

		walDir    = flag.String("wal", "", "durable matcher: write-ahead log directory")
		replayDir = flag.String("replay", "", "reconstruct the matcher from this WAL directory and print its pairs")
		fsync     = flag.Bool("fsync", true, "wal/replay: fsync every WAL record")
		snapshot  = flag.Bool("snapshot", false, "wal: write a snapshot (compact the log) before exiting")

		metricsAddr = flag.String("metrics", "", "serve the matcher's metrics and pprof on this address (e.g. :8080)")
	)
	flag.Parse()
	// A graph file is needed except when reconstructing from a WAL:
	// -replay never reads it, and -wal only reads it when the log is
	// fresh (openDurable errors then if none was given).
	if *keysPath == "" || (*graphPath == "" && *replayDir == "" && *walDir == "") {
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
	durOpts := graphkeys.Options{Workers: *p, Durability: graphkeys.DurabilityAppend}
	if *fsync {
		durOpts.Durability = graphkeys.DurabilityFsync
	}

	if *replayDir != "" {
		runReplay(*replayDir, *graphPath, ks, durOpts, *classes, *metricsAddr)
		return
	}

	loadGraph := func() *graphkeys.Graph {
		if *graphPath == "" {
			log.Fatal("emrun: the WAL directory is fresh; -graph is required to seed it")
		}
		gf, err := os.Open(*graphPath)
		if err != nil {
			log.Fatal(err)
		}
		defer gf.Close()
		g, err := graphkeys.LoadGraph(gf)
		if err != nil {
			log.Fatal(err)
		}
		return g
	}

	if *walDir != "" {
		// Durable path: open the WAL first — on resume the graph file
		// is ignored, so it is only parsed when the log is fresh.
		m, err := openDurable(*walDir, loadGraph, ks, durOpts)
		if err != nil {
			log.Fatal(err)
		}
		serveMetrics(*metricsAddr, m)
		fmt.Fprintf(os.Stderr, "emrun: matcher ready: %d triples, %d pairs\n",
			m.Graph().NumTriples(), len(m.Result().Matches))
		if *incremental {
			runIncremental(m, ks, *rounds, *deltaFrac, *mutSeed, *verify, *p)
		} else {
			printResult(m.Result(), *classes)
		}
		if *snapshot {
			if err := m.Snapshot(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "emrun: snapshot written to %s\n", *walDir)
		}
		if err := m.Close(); err != nil {
			log.Fatal(err)
		}
		return
	}

	g := loadGraph()

	engines := map[string]graphkeys.Engine{
		"chase":         graphkeys.Chase,
		"pchase":        graphkeys.ParallelChase,
		"parallelchase": graphkeys.ParallelChase,
		"emmr":          graphkeys.MapReduce,
		"emvf2mr":       graphkeys.MapReduceVF2,
		"emoptmr":       graphkeys.MapReduceOpt,
		"emvc":          graphkeys.VertexCentric,
		"emoptvc":       graphkeys.VertexCentricOpt,
	}
	eng, ok := engines[strings.ToLower(*engine)]
	if !ok {
		log.Fatalf("emrun: unknown engine %q", *engine)
	}

	fmt.Fprintf(os.Stderr, "emrun: %d triples, %d entities, %d keys, engine %v, p=%d\n",
		g.NumTriples(), g.NumEntities(), ks.Len(), eng, *p)

	if *incremental {
		start := time.Now()
		m, err := graphkeys.NewMatcher(g, ks, graphkeys.Options{Workers: *p})
		if err != nil {
			log.Fatal(err)
		}
		serveMetrics(*metricsAddr, m)
		fmt.Fprintf(os.Stderr, "emrun: initial full chase: %d pairs in %v\n",
			len(m.Result().Matches), time.Since(start).Round(time.Microsecond))
		runIncremental(m, ks, *rounds, *deltaFrac, *mutSeed, *verify, *p)
		return
	}

	// One-shot modes have no matcher to instrument; -metrics still
	// serves pprof for profiling the run.
	serveMetrics(*metricsAddr, nil)

	if *validate {
		vs, err := graphkeys.Validate(g, ks, graphkeys.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if len(vs) == 0 {
			fmt.Println("G |= Σ: no violations")
			return
		}
		for _, v := range vs {
			fmt.Printf("violation\t%s\t%s\t%s\n", v.Key, v.A, v.B)
		}
		os.Exit(1)
	}

	start := time.Now()
	res, err := graphkeys.Match(g, ks, graphkeys.Options{Engine: eng, Workers: *p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "emrun: %d pairs in %v\n", len(res.Matches), time.Since(start).Round(time.Microsecond))
	printResult(res, *classes)
}

// serveMetrics starts a background HTTP server on addr exposing the
// matcher's instruments (/metrics Prometheus text, /vars JSON,
// /events recent phase spans) and the pprof profiling endpoints under
// /debug/pprof/. A nil matcher serves pprof only. No-op when addr is
// empty; the server dies with the process.
func serveMetrics(addr string, m *graphkeys.Matcher) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	if m != nil {
		mux.Handle("/", m.MetricsHandler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("emrun: metrics server: %v", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "emrun: serving metrics on %s\n", addr)
}

func printResult(res *graphkeys.Result, classes bool) {
	if classes {
		for _, cls := range res.Classes {
			fmt.Println(strings.Join(cls, "\t"))
		}
		return
	}
	for _, m := range res.Matches {
		fmt.Printf("%s\t%s\n", m.A, m.B)
	}
}

// openDurable opens the WAL-backed matcher and, when the directory is
// fresh (seq 0 — not merely an empty graph), loads the graph file and
// seeds the directory with it. On resume the graph file is never parsed.
func openDurable(dir string, loadGraph func() *graphkeys.Graph, ks *graphkeys.KeySet, opts graphkeys.Options) (*graphkeys.Matcher, error) {
	m, err := graphkeys.OpenMatcher(dir, ks, opts)
	if err != nil {
		return nil, err
	}
	if m.Seq() > 0 {
		fmt.Fprintf(os.Stderr, "emrun: resumed WAL state from %s (seq %d, %d triples); graph file ignored\n",
			dir, m.Seq(), m.Graph().NumTriples())
		return m, nil
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	if m, err = graphkeys.SeedMatcher(dir, loadGraph(), ks, opts); err != nil {
		return nil, fmt.Errorf("emrun: seeding %s from graph: %v", dir, err)
	}
	fmt.Fprintf(os.Stderr, "emrun: seeded %s: snapshot at seq %d\n", dir, m.Seq())
	return m, nil
}

// runReplay reconstructs a matcher from the WAL directory alone and
// prints its pairs; with a reference graph file it also verifies the
// reconstruction byte for byte.
func runReplay(dir, graphPath string, ks *graphkeys.KeySet, opts graphkeys.Options, classes bool, metricsAddr string) {
	start := time.Now()
	m, err := graphkeys.OpenMatcher(dir, ks, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	serveMetrics(metricsAddr, m)
	fmt.Fprintf(os.Stderr, "emrun: replayed %s: %d triples, %d pairs in %v\n",
		dir, m.Graph().NumTriples(), len(m.Result().Matches), time.Since(start).Round(time.Microsecond))
	if graphPath != "" {
		gf, err := os.Open(graphPath)
		if err != nil {
			log.Fatal(err)
		}
		ref, err := graphkeys.LoadGraph(gf)
		gf.Close()
		if err != nil {
			log.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := m.Graph().Write(&got); err != nil {
			log.Fatal(err)
		}
		if err := ref.Write(&want); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			log.Fatal("emrun: replayed graph diverges from the reference graph file")
		}
		fmt.Fprintln(os.Stderr, "emrun: replayed graph matches the reference graph file")
	}
	printResult(m.Result(), classes)
}

// triple is the string form of a stored triple, for replay deltas.
type triple struct {
	s, p, o string
	isValue bool
}

// runIncremental drives the -incremental replay mode over an existing
// matcher: per round, remove and re-add a random small batch of
// triples, reporting repair cost and churn.
func runIncremental(m *graphkeys.Matcher, ks *graphkeys.KeySet, rounds int, deltaFrac float64, seed int64, verify bool, p int) {
	g := m.Graph()
	rng := rand.New(rand.NewSource(seed))
	batch := int(float64(g.NumTriples()) * deltaFrac)
	if batch < 1 {
		batch = 1
	}
	var incTotal time.Duration
	deltas := 0
	apply := func(round int, label string, d *graphkeys.Delta) {
		t0 := time.Now()
		added, removed, err := m.Apply(d)
		if err != nil {
			log.Fatal(err)
		}
		dt := time.Since(t0)
		incTotal += dt
		deltas++
		st := m.LastStats()
		fmt.Printf("round %d %s\t%d ops\t+%d -%d pairs\t%v\t(suspects %d, region %d, checked %d)\n",
			round, label, d.Len(), len(added), len(removed), dt.Round(time.Microsecond),
			st.Suspects, st.Region, st.Checked)
		if verify {
			full, err := graphkeys.Match(g, ks, graphkeys.Options{Workers: p})
			if err != nil {
				log.Fatal(err)
			}
			if !reflect.DeepEqual(m.Result().Matches, full.Matches) {
				log.Fatalf("emrun: round %d %s: incremental result diverges from full re-chase", round, label)
			}
		}
	}

	for round := 1; round <= rounds; round++ {
		var all []triple
		g.EachTriple(func(s, pred, o string, isVal bool) {
			all = append(all, triple{s, pred, o, isVal})
		})
		if len(all) == 0 {
			log.Fatal("emrun: graph has no triples to mutate")
		}
		picked := make([]triple, 0, batch)
		for i := 0; i < batch; i++ {
			picked = append(picked, all[rng.Intn(len(all))])
		}
		rem, add := graphkeys.NewDelta(), graphkeys.NewDelta()
		for _, tr := range picked {
			if tr.isValue {
				rem.RemoveValueTriple(tr.s, tr.p, tr.o)
				add.AddValueTriple(tr.s, tr.p, tr.o)
			} else {
				rem.RemoveEntityTriple(tr.s, tr.p, tr.o)
				add.AddEntityTriple(tr.s, tr.p, tr.o)
			}
		}
		apply(round, "remove", rem)
		apply(round, "re-add", add)
	}
	if deltas == 0 {
		fmt.Fprintln(os.Stderr, "emrun: no deltas applied")
		return
	}
	perDelta := incTotal / time.Duration(deltas)
	fmt.Fprintf(os.Stderr, "emrun: %d deltas of ~%d triples: %v total, %v/delta\n",
		deltas, batch, incTotal.Round(time.Microsecond), perDelta.Round(time.Microsecond))
}
