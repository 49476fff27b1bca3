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
// fails on divergence. -engine, -p, -classes and -validate choose what
// a batch run computes and prints; -incremental refuses them (exit 2).
//
// emrun keeps no state between runs. The durable matcher (a
// write-ahead log directory seeded from a graph file, replayed on
// restart) and its metrics and pprof endpoints are emserve's.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"time"

	"graphkeys"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// batchOnly names the flags that choose what a batch run computes or
// prints, or how many workers it uses; -incremental refuses them when
// they are set.
var batchOnly = []string{"engine", "p", "classes", "validate"}

// run is emrun on args, printing to stdout and stderr, and returns the
// exit status: 0, 1 on a failure or a violation, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "graph file (text triple format)")
		keysPath  = fs.String("keys", "", "keys file (key DSL)")
		engine    = fs.String("engine", "emoptvc", "chase | pchase | emmr | emvf2mr | emoptmr | emvc | emoptvc")
		p         = fs.Int("p", 4, "number of workers")
		classes   = fs.Bool("classes", false, "print equivalence classes instead of pairs")
		validate  = fs.Bool("validate", false, "check key satisfaction G |= Σ instead of matching")

		incremental = fs.Bool("incremental", false, "replay a mutation workload through the incremental Matcher")
		rounds      = fs.Int("rounds", 5, "incremental: number of remove/re-add rounds")
		deltaFrac   = fs.Float64("delta", 0.01, "incremental: fraction of triples mutated per delta")
		mutSeed     = fs.Int64("mutseed", 1, "incremental: mutation RNG seed")
		verify      = fs.Bool("verify", false, "incremental: check every delta against a full re-chase")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *keysPath == "" || *graphPath == "" {
		fs.Usage()
		return 2
	}
	if *incremental {
		refused := 0
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(batchOnly, f.Name) {
				fmt.Fprintf(stderr, "emrun: -%s does not apply to -incremental\n", f.Name)
				refused++
			}
		})
		if refused > 0 {
			return 2
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "emrun:", err)
		return 1
	}

	kf, err := os.Open(*keysPath)
	if err != nil {
		return fail(err)
	}
	ks, err := graphkeys.ParseKeysFrom(kf)
	kf.Close()
	if err != nil {
		return fail(err)
	}
	gf, err := os.Open(*graphPath)
	if err != nil {
		return fail(err)
	}
	g, err := graphkeys.LoadGraph(gf)
	gf.Close()
	if err != nil {
		return fail(err)
	}

	if *incremental {
		fmt.Fprintf(stderr, "emrun: %d triples, %d entities, %d keys\n",
			g.NumTriples(), g.NumEntities(), ks.Len())
		start := time.Now()
		m, err := graphkeys.NewMatcher(g, ks, graphkeys.Options{})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "emrun: initial full chase: %d pairs in %v\n",
			len(m.Result().Matches), time.Since(start).Round(time.Microsecond))
		if err := runIncremental(m, ks, *rounds, *deltaFrac, *mutSeed, *verify, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

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
		return fail(fmt.Errorf("unknown engine %q", *engine))
	}
	fmt.Fprintf(stderr, "emrun: %d triples, %d entities, %d keys, engine %v, p=%d\n",
		g.NumTriples(), g.NumEntities(), ks.Len(), eng, *p)

	if *validate {
		vs, err := graphkeys.Validate(g, ks, graphkeys.Options{})
		if err != nil {
			return fail(err)
		}
		if len(vs) == 0 {
			fmt.Fprintln(stdout, "G |= Σ: no violations")
			return 0
		}
		for _, v := range vs {
			fmt.Fprintf(stdout, "violation\t%s\t%s\t%s\n", v.Key, v.A, v.B)
		}
		return 1
	}

	start := time.Now()
	res, err := graphkeys.Match(g, ks, graphkeys.Options{Engine: eng, Workers: *p})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "emrun: %d pairs in %v\n", len(res.Matches), time.Since(start).Round(time.Microsecond))
	if *classes {
		for _, cls := range res.Classes {
			fmt.Fprintln(stdout, strings.Join(cls, "\t"))
		}
		return 0
	}
	for _, m := range res.Matches {
		fmt.Fprintf(stdout, "%s\t%s\n", m.A, m.B)
	}
	return 0
}

// triple is the string form of a stored triple, for replay deltas.
type triple struct {
	s, p, o string
	isValue bool
}

// runIncremental drives the -incremental replay mode over the
// in-memory matcher: per round, remove and re-add a random small batch of
// triples, reporting repair cost and churn.
func runIncremental(m *graphkeys.Matcher, ks *graphkeys.KeySet, rounds int, deltaFrac float64, seed int64, verify bool, stdout, stderr io.Writer) error {
	g := m.Graph()
	rng := rand.New(rand.NewSource(seed))
	batch := int(float64(g.NumTriples()) * deltaFrac)
	if batch < 1 {
		batch = 1
	}
	var incTotal time.Duration
	deltas := 0
	apply := func(round int, label string, d *graphkeys.Delta) error {
		t0 := time.Now()
		added, removed, err := m.Apply(d)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		incTotal += dt
		deltas++
		st := m.LastStats()
		fmt.Fprintf(stdout, "round %d %s\t%d ops\t+%d -%d pairs\t%v\t(suspects %d, region %d, checked %d)\n",
			round, label, d.Len(), len(added), len(removed), dt.Round(time.Microsecond),
			st.Suspects, st.Region, st.Checked)
		if verify {
			full, err := graphkeys.Match(g, ks, graphkeys.Options{})
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(m.Result().Matches, full.Matches) {
				return fmt.Errorf("round %d %s: incremental result diverges from full re-chase", round, label)
			}
		}
		return nil
	}

	for round := 1; round <= rounds; round++ {
		var all []triple
		g.EachTriple(func(s, pred, o string, isVal bool) {
			all = append(all, triple{s, pred, o, isVal})
		})
		if len(all) == 0 {
			return fmt.Errorf("graph has no triples to mutate")
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
		if err := apply(round, "remove", rem); err != nil {
			return err
		}
		if err := apply(round, "re-add", add); err != nil {
			return err
		}
	}
	if deltas == 0 {
		fmt.Fprintln(stderr, "emrun: no deltas applied")
		return nil
	}
	perDelta := incTotal / time.Duration(deltas)
	fmt.Fprintf(stderr, "emrun: %d deltas of ~%d triples: %v total, %v/delta\n",
		deltas, batch, incTotal.Round(time.Microsecond), perDelta.Round(time.Microsecond))
	return nil
}
