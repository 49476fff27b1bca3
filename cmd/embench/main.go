// Command embench regenerates the experimental study of "Keys for
// Graphs" (§6): every figure panel of Fig. 8, Table 2, and the
// optimization-effectiveness reports, printing the same rows/series the
// paper reports (absolute times are this machine's, not the paper's
// EC2 cluster; the shapes are the reproduction target).
//
// Usage:
//
//	embench                 # the full suite at the default size
//	embench -quick          # a fast smoke-sized run
//	embench -exp fig8a      # one experiment
//	embench -csv            # machine-readable output
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"graphkeys/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: all | fig8a..fig8l | table2 | ablations | cluster")
		quick = flag.Bool("quick", false, "smoke-sized datasets")
		csv   = flag.Bool("csv", false, "CSV output")
		scale = flag.Float64("scale", 1.0, "dataset scale factor")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	cfg := bench.DefaultBuild()
	cfg.Seed = *seed
	cfg.Scale = *scale
	ps := []int{4, 8, 12, 16, 20}
	scales := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	cs := []int{1, 2, 3, 4, 5}
	dsw := []int{1, 2, 3, 4, 5}
	if *quick {
		cfg.Scale = 0.3
		ps = []int{2, 4}
		scales = []float64{0.2, 0.3}
		cs = []int{1, 2}
		dsw = []int{1, 2}
	}

	type runner func() (*bench.Table, error)
	suite := []struct {
		name string
		run  runner
	}{
		{"fig8a", func() (*bench.Table, error) { return bench.Exp1VaryP(bench.GoogleDS, cfg, ps) }},
		{"fig8b", func() (*bench.Table, error) { return bench.Exp2VaryG(bench.GoogleDS, cfg, scales, 4) }},
		{"fig8c", func() (*bench.Table, error) { return bench.Exp3VaryC(bench.GoogleDS, cfg, cs, 4) }},
		{"fig8d", func() (*bench.Table, error) { return bench.Exp3VaryD(bench.GoogleDS, cfg, dsw, 4) }},
		{"fig8e", func() (*bench.Table, error) { return bench.Exp1VaryP(bench.DBpediaDS, cfg, ps) }},
		{"fig8f", func() (*bench.Table, error) { return bench.Exp2VaryG(bench.DBpediaDS, cfg, scales, 4) }},
		{"fig8g", func() (*bench.Table, error) { return bench.Exp3VaryC(bench.DBpediaDS, cfg, cs, 4) }},
		{"fig8h", func() (*bench.Table, error) { return bench.Exp3VaryD(bench.DBpediaDS, cfg, dsw, 4) }},
		{"fig8i", func() (*bench.Table, error) { return bench.Exp1VaryP(bench.SyntheticDS, cfg, ps) }},
		{"fig8j", func() (*bench.Table, error) { return bench.Exp2VaryG(bench.SyntheticDS, cfg, scales, 4) }},
		{"fig8k", func() (*bench.Table, error) { return bench.Exp3VaryC(bench.SyntheticDS, cfg, cs, 4) }},
		{"fig8l", func() (*bench.Table, error) { return bench.Exp3VaryD(bench.SyntheticDS, cfg, dsw, 4) }},
		{"table2", func() (*bench.Table, error) { return bench.Table2(cfg, 4) }},
		{"ablations", func() (*bench.Table, error) { return bench.Ablations(bench.SyntheticDS, cfg, 4) }},
		{"cluster", func() (*bench.Table, error) { return bench.ClusterComparison(bench.SyntheticDS, cfg, 4) }},
	}

	ran := 0
	for _, s := range suite {
		if *exp != "all" && !strings.EqualFold(*exp, s.name) {
			continue
		}
		ran++
		t, err := s.run()
		if err != nil {
			log.Fatalf("embench: %s: %v", s.name, err)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", s.name, t.CSV())
		} else {
			t.Print(os.Stdout)
		}
	}
	if ran == 0 {
		log.Fatalf("embench: unknown experiment %q", *exp)
	}
}
