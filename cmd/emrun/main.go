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
// emrun keeps no state between runs. The durable matcher (a
// write-ahead log directory seeded from a graph file, replayed on
// restart) and its metrics and pprof endpoints are emserve's.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
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
	)
	flag.Parse()
	if *keysPath == "" || *graphPath == "" {
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
	gf, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := graphkeys.LoadGraph(gf)
	gf.Close()
	if err != nil {
		log.Fatal(err)
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
		log.Fatalf("emrun: unknown engine %q", *engine)
	}

	fmt.Fprintf(os.Stderr, "emrun: %d triples, %d entities, %d keys, engine %v, p=%d\n",
		g.NumTriples(), g.NumEntities(), ks.Len(), eng, *p)

	if *incremental {
		start := time.Now()
		m, err := graphkeys.NewMatcher(g, ks, graphkeys.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "emrun: initial full chase: %d pairs in %v\n",
			len(m.Result().Matches), time.Since(start).Round(time.Microsecond))
		runIncremental(m, ks, *rounds, *deltaFrac, *mutSeed, *verify, *p)
		return
	}

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
	if *classes {
		for _, cls := range res.Classes {
			fmt.Println(strings.Join(cls, "\t"))
		}
		return
	}
	for _, m := range res.Matches {
		fmt.Printf("%s\t%s\n", m.A, m.B)
	}
}

// triple is the string form of a stored triple, for replay deltas.
type triple struct {
	s, p, o string
	isValue bool
}

// runIncremental drives the -incremental replay mode over the
// in-memory matcher: per round, remove and re-add a random small batch of
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
