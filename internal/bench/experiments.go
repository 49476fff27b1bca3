package bench

import (
	"fmt"
	"time"

	"graphkeys/internal/mapreduce"
)

// This file defines one runner per experiment of §6. Each returns a
// Table whose rows mirror the series of the corresponding figure panel.

// Exp1VaryP reproduces Fig. 8(a)/(e)/(i): runtime of all five
// algorithms as the worker count p grows (the parallel-scalability
// claim). Row per p, column per algorithm.
func Exp1VaryP(ds Dataset, cfg BuildConfig, ps []int) (*Table, error) {
	w, err := Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Exp-1 (Fig 8 %s): varying p, c=%d d=%d", ds, cfg.C, cfg.D),
		Header: append([]string{"p"}, algoNames()...),
	}
	for _, p := range ps {
		row := []string{fmt.Sprintf("%d", p)}
		for _, a := range Algos {
			m, err := RunAlgo(w, a, p)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(m.Elapsed))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Exp2VaryG reproduces Fig. 8(b)/(f)/(j): runtime as the graph scale
// factor grows, with p fixed (the paper uses p = 4).
func Exp2VaryG(ds Dataset, cfg BuildConfig, scales []float64, p int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Exp-2 (Fig 8 %s): varying |G|, p=%d", ds, p),
		Header: append([]string{"scale", "|G|"}, algoNames()...),
	}
	for _, s := range scales {
		c := cfg
		c.Scale = s
		w, err := Build(ds, c)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.1f", s), fmt.Sprintf("%d", w.Graph.NumTriples())}
		for _, a := range Algos {
			m, err := RunAlgo(w, a, p)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(m.Elapsed))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Exp3VaryC reproduces Fig. 8(c)/(g)/(k): runtime as the longest
// dependency chain c grows (p and d fixed). The MapReduce round count
// is reported alongside, as the paper calls it out.
func Exp3VaryC(ds Dataset, cfg BuildConfig, cs []int, p int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Exp-3 (Fig 8 %s): varying c, p=%d d=%d", ds, p, cfg.D),
		Header: append(append([]string{"c"}, algoNames()...), "EMMR rounds"),
	}
	for _, c := range cs {
		bc := cfg
		bc.C = c
		w, err := Build(ds, bc)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", c)}
		var rounds int64
		for _, a := range Algos {
			m, err := RunAlgo(w, a, p)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(m.Elapsed))
			if a == AlgoEMMR {
				rounds = m.Extra["rounds"]
			}
		}
		row = append(row, fmt.Sprintf("%d", rounds))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Exp3VaryD reproduces Fig. 8(d)/(h)/(l): runtime as the key radius d
// grows (p and c fixed), plus the d-neighbor shrink factor of the
// pairing reduction the paper reports for EMOptMR.
func Exp3VaryD(ds Dataset, cfg BuildConfig, dsweep []int, p int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Exp-3 (Fig 8 %s): varying d, p=%d c=%d", ds, p, cfg.C),
		Header: append(append([]string{"d"}, algoNames()...), "Gd shrink"),
	}
	for _, d := range dsweep {
		bc := cfg
		bc.D = d
		w, err := Build(ds, bc)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", d)}
		var shrink string
		for _, a := range Algos {
			m, err := RunAlgo(w, a, p)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(m.Elapsed))
			if a == AlgoEMOptMR && m.Extra["nbhdReduced"] > 0 {
				shrink = fmt.Sprintf("%.1fx", float64(m.Extra["nbhdNodes"])/float64(m.Extra["nbhdReduced"]))
			}
		}
		row = append(row, shrink)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table2 reproduces Table 2: candidate matches checked by the two
// optimized algorithms versus confirmed matches, per dataset.
func Table2(cfg BuildConfig, p int) (*Table, error) {
	t := &Table{
		Title:  "Table 2: candidate matches vs confirmed matches",
		Header: []string{"Dataset", "Candidates EMOptVC", "Candidates EMOptMR", "Confirmed"},
	}
	for _, ds := range []Dataset{GoogleDS, DBpediaDS, SyntheticDS} {
		w, err := Build(ds, cfg)
		if err != nil {
			return nil, err
		}
		vc, err := RunAlgo(w, AlgoEMOptVC, p)
		if err != nil {
			return nil, err
		}
		mr, err := RunAlgo(w, AlgoEMOptMR, p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds.String(),
			fmt.Sprintf("%d", vc.Candidates),
			fmt.Sprintf("%d", mr.Candidates),
			fmt.Sprintf("%d", vc.Pairs),
		})
	}
	return t, nil
}

// Ablations reports the §6 optimization-effectiveness claims: the
// candidate-set reduction, d-neighbor shrink, dependency-gated check
// savings (EMOptMR vs EMMR), the EvalMR-vs-VF2 step ratio, the bounded-
// message savings (EMOptVC vs EMVC), and the product graph size ratio
// |Gp|/|G|.
func Ablations(ds Dataset, cfg BuildConfig, p int) (*Table, error) {
	w, err := Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	base, err := RunAlgo(w, AlgoEMMR, p)
	if err != nil {
		return nil, err
	}
	vf2, err := RunAlgo(w, AlgoEMVF2MR, p)
	if err != nil {
		return nil, err
	}
	opt, err := RunAlgo(w, AlgoEMOptMR, p)
	if err != nil {
		return nil, err
	}
	vc, err := RunAlgo(w, AlgoEMVC, p)
	if err != nil {
		return nil, err
	}
	vcOpt, err := RunAlgo(w, AlgoEMOptVC, p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Optimization ablations (%s, p=%d)", ds, p),
		Header: []string{"metric", "value"},
	}
	addRow := func(metric, value string) { t.Rows = append(t.Rows, []string{metric, value}) }
	addRow("L reduction by pairing",
		fmt.Sprintf("%.0f%% (%d -> %d)",
			100*(1-float64(opt.Candidates)/nonzero(float64(opt.Extra["candidatesUnfiltered"]))),
			opt.Extra["candidatesUnfiltered"], opt.Candidates))
	if opt.Extra["nbhdReduced"] > 0 {
		addRow("Gd shrink by pairing",
			fmt.Sprintf("%.1fx (%d -> %d nodes)",
				float64(opt.Extra["nbhdNodes"])/float64(opt.Extra["nbhdReduced"]),
				opt.Extra["nbhdNodes"], opt.Extra["nbhdReduced"]))
	}
	addRow("checks skipped by dependency gating (EMOptMR)",
		fmt.Sprintf("%d (vs %d performed)", opt.Extra["skipped"], opt.Extra["checks"]))
	addRow("EvalMR vs VF2 search steps",
		fmt.Sprintf("%.1fx fewer (%d vs %d)",
			float64(vf2.Extra["isoSteps"])/nonzero(float64(base.Extra["isoSteps"])),
			base.Extra["isoSteps"], vf2.Extra["isoSteps"]))
	addRow("EMOptVC vs EMVC messages",
		fmt.Sprintf("%.1fx fewer (%d vs %d)",
			float64(vc.Extra["messages"])/nonzero(float64(vcOpt.Extra["messages"])),
			vcOpt.Extra["messages"], vc.Extra["messages"]))
	addRow("EMMR vs EMVF2MR time", ratio(vf2.Elapsed, base.Elapsed))
	addRow("EMOptMR vs EMMR time", ratio(base.Elapsed, opt.Elapsed))
	addRow("EMOptVC vs EMVC time", ratio(vc.Elapsed, vcOpt.Elapsed))
	addRow("EMOptVC vs EMOptMR time", ratio(opt.Elapsed, vcOpt.Elapsed))
	addRow("|Gp| nodes vs |G| triples",
		fmt.Sprintf("%.2f (%d vs %d)",
			float64(vc.Extra["productNodes"])/nonzero(float64(w.Graph.NumTriples())),
			vc.Extra["productNodes"], w.Graph.NumTriples()))
	return t, nil
}

// ClusterComparison reproduces the paper's headline EMVC-vs-EMMR gap
// (§6: EMVC "at least 12.1, 10.9 and 13.5 times faster"). That gap is
// dominated by MapReduce's per-round job-scheduling and HDFS
// materialization costs, which an in-process simulation does not
// naturally pay; this experiment charges an explicit, configurable
// cluster cost model to the MapReduce engines (the vertex-centric
// engines, having no rounds and no materialization barrier, pay
// nothing) and reports the resulting ratios. The default constants are
// conservative for a Hadoop 1.x deployment: 250ms job latency per
// round, 5µs per shuffled KV.
func ClusterComparison(ds Dataset, cfg BuildConfig, p int) (*Table, error) {
	w, err := Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	cost := mapreduce.CostModel{RoundLatency: 250 * time.Millisecond, PerKV: 5 * time.Microsecond}
	t := &Table{
		Title: fmt.Sprintf("Cluster-cost comparison (%s, p=%d, %v/round + %v/KV charged to MapReduce)",
			ds, p, cost.RoundLatency, cost.PerKV),
		Header: []string{"algorithm", "time", "rounds", "vs EMOptVC"},
	}
	vc, err := RunAlgo(w, AlgoEMOptVC, p)
	if err != nil {
		return nil, err
	}
	for _, a := range []Algo{AlgoEMMR, AlgoEMOptMR} {
		mr, err := runAlgo(w, a, p, cost)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			a.String(),
			fmtDur(mr.Elapsed),
			fmt.Sprintf("%d", mr.Extra["rounds"]),
			fmt.Sprintf("%.1fx slower", float64(mr.Elapsed)/nonzero(float64(vc.Elapsed))),
		})
	}
	t.Rows = append(t.Rows, []string{"EMOptVC", fmtDur(vc.Elapsed), "-", "1.0x"})
	return t, nil
}

func ratio(slow, fast time.Duration) string {
	if fast <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx faster (%s vs %s)", float64(slow)/float64(fast), fmtDur(fast), fmtDur(slow))
}

func nonzero(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

func algoNames() []string {
	var out []string
	for _, a := range Algos {
		out = append(out, a.String())
	}
	return out
}
