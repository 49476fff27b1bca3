// Package bench is the experiment harness reproducing the evaluation of
// "Keys for Graphs" (§6): for every figure panel (Fig. 8(a)–(l)) and
// Table 2 it builds the corresponding workload, runs the paper's five
// algorithms, and renders the same rows/series the paper reports.
// Absolute times differ from the paper's EC2 cluster (every engine runs
// in one process here); the shapes — who wins, by what factor, how
// costs respond to p, |G|, c and d — are the reproduction target (see
// the Benchmarks section of README.md for the ways to run it).
package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"graphkeys/internal/emmr"
	"graphkeys/internal/emvc"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
)

// Dataset identifies a workload family of §6.
type Dataset int

const (
	// GoogleDS is the Google+-flavored social graph (30 keys).
	GoogleDS Dataset = iota
	// DBpediaDS is the DBpedia-flavored knowledge base (100 keys).
	DBpediaDS
	// SyntheticDS is the synthetic generator (up to 500 keys).
	SyntheticDS
)

// String names the dataset as in the paper's figures.
func (d Dataset) String() string {
	switch d {
	case GoogleDS:
		return "Google"
	case DBpediaDS:
		return "DBpedia"
	case SyntheticDS:
		return "Synthetic"
	default:
		return fmt.Sprintf("Dataset(%d)", int(d))
	}
}

// Algo identifies one of the five evaluated algorithms.
type Algo int

const (
	AlgoEMVF2MR Algo = iota
	AlgoEMMR
	AlgoEMOptMR
	AlgoEMVC
	AlgoEMOptVC
)

// Algos lists all five in the paper's legend order.
var Algos = []Algo{AlgoEMVF2MR, AlgoEMMR, AlgoEMOptMR, AlgoEMVC, AlgoEMOptVC}

// String names the algorithm as in the paper.
func (a Algo) String() string {
	switch a {
	case AlgoEMVF2MR:
		return "EMVF2MR"
	case AlgoEMMR:
		return "EMMR"
	case AlgoEMOptMR:
		return "EMOptMR"
	case AlgoEMVC:
		return "EMVC"
	case AlgoEMOptVC:
		return "EMOptVC"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// BuildConfig sizes a workload.
type BuildConfig struct {
	Seed int64
	// Scale multiplies dataset sizes (the Exp-2 x-axis).
	Scale float64
	// C and D are the key-generator parameters (the Exp-3 x-axes);
	// every dataset gets planted chains with these parameters, matching
	// the paper's "fixing c = 2 and d = 2" baseline.
	C, D int
}

// DefaultBuild is the paper's baseline setting (c = 2, d = 2).
func DefaultBuild() BuildConfig { return BuildConfig{Seed: 1, Scale: 1, C: 2, D: 2} }

// Build constructs the workload for a dataset at the given size and key
// parameters.
func Build(ds Dataset, cfg BuildConfig) (*gen.Workload, error) {
	chains := gen.SyntheticConfig{
		Seed:                cfg.Seed + 13,
		TypeGroups:          2,
		EntitiesPerType:     scaledInt(24, cfg.Scale),
		DupFraction:         0.2,
		NearMissFraction:    0.3,
		Chain:               cfg.C,
		Radius:              cfg.D,
		Labels:              6000,
		NoiseEdgesPerEntity: 1,
	}
	switch ds {
	case GoogleDS:
		w, err := gen.Google(gen.FlavorConfig{Seed: cfg.Seed, Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		if err := gen.PlantChains(w, chains, "g_"); err != nil {
			return nil, err
		}
		return w, nil
	case DBpediaDS:
		w, err := gen.DBpedia(gen.FlavorConfig{Seed: cfg.Seed, Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		if err := gen.PlantChains(w, chains, "d_"); err != nil {
			return nil, err
		}
		return w, nil
	case SyntheticDS:
		syn := chains
		syn.TypeGroups = 4
		syn.EntitiesPerType = scaledInt(40, cfg.Scale)
		return gen.Synthetic(syn)
	default:
		return nil, fmt.Errorf("bench: unknown dataset %v", ds)
	}
}

func scaledInt(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 4 {
		n = 4
	}
	return n
}

// Measurement is one algorithm run's outcome.
type Measurement struct {
	Algo       Algo
	P          int
	Elapsed    time.Duration
	Pairs      int
	Candidates int
	// Extra carries algorithm-specific counters for the ablation
	// reports (rounds, messages, skipped checks, ...).
	Extra map[string]int64
}

// RunAlgo executes one algorithm on a workload with p workers. A
// result that differs from the planted ground truth is an error: no
// table is built from a wrong run.
func RunAlgo(w *gen.Workload, a Algo, p int) (Measurement, error) {
	return runAlgo(w, a, p, emmr.CostModel{})
}

// runAlgo is RunAlgo with a cluster cost model charged to the
// MapReduce algorithms: their Elapsed is the wall time plus
// emmr.Stats.Charged, the model priced over the run's counted rounds
// and key/value pairs (the vertex-centric ones run no MapReduce jobs
// to charge).
func runAlgo(w *gen.Workload, a Algo, p int, cost emmr.CostModel) (Measurement, error) {
	m := Measurement{Algo: a, P: p, Extra: map[string]int64{}}
	var pairs []eqrel.Pair
	start := time.Now()
	switch a {
	case AlgoEMVF2MR, AlgoEMMR, AlgoEMOptMR:
		variant := emmr.Base
		if a == AlgoEMVF2MR {
			variant = emmr.VF2
		} else if a == AlgoEMOptMR {
			variant = emmr.Opt
		}
		res, err := emmr.Run(w.Graph, w.Keys, emmr.Config{P: p, Variant: variant, Cost: cost})
		if err != nil {
			return m, err
		}
		m.Elapsed = time.Since(start) + res.Stats.Charged
		pairs = res.Pairs
		m.Candidates = res.Stats.Candidates
		m.Extra["rounds"] = int64(res.Stats.Rounds)
		m.Extra["checks"] = int64(res.Stats.Checks)
		m.Extra["isoSteps"] = res.Stats.IsoSteps
		m.Extra["skipped"] = int64(res.Stats.SkippedByDependency)
		m.Extra["candidatesUnfiltered"] = int64(res.Stats.CandidatesUnfiltered)
		if variant == emmr.Opt {
			// Only Opt's pairing job measures the d-neighbours it ships.
			m.Extra["nbhdNodes"] = int64(res.Stats.NeighborhoodNodes)
			m.Extra["nbhdReduced"] = int64(res.Stats.ReducedNeighborhoodNodes)
		}
	case AlgoEMVC, AlgoEMOptVC:
		variant := emvc.Base
		if a == AlgoEMOptVC {
			variant = emvc.Opt
		}
		res, err := emvc.Run(w.Graph, w.Keys, emvc.Config{P: p, Variant: variant})
		if err != nil {
			return m, err
		}
		m.Elapsed = time.Since(start)
		pairs = res.Pairs
		m.Candidates = res.Stats.Candidates
		m.Extra["messages"] = res.Stats.Messages
		m.Extra["localSteps"] = res.Stats.LocalSteps
		m.Extra["increments"] = res.Stats.Increments
		m.Extra["productNodes"] = int64(res.Stats.ProductNodes)
	default:
		return m, fmt.Errorf("bench: unknown algo %v", a)
	}
	m.Pairs = len(pairs)
	if !slices.Equal(pairs, w.Expected) {
		return m, fmt.Errorf("bench: %v: result differs from the planted truth (%d pairs, %d planted)", a, len(pairs), len(w.Expected))
	}
	return m, nil
}

// Table is a rendered experiment: a header row plus data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Print renders the table aligned.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteString("\n")
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
