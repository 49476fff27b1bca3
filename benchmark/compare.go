package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compare prints one row per (end-to-end metric, workload) of two
// result sets and returns how many rows are worse. A row is
//
//	unresolved  when the OLD set's own quartile spread exceeds the bound:
//	            the metric cannot tell a regression of that size from noise;
//	worse       when NEW's median is worse than OLD's by more than the bound;
//	better      when it is better by more than the bound;
//	same        otherwise.
//
// A workload on which NEW failed a larger share of its operations than
// OLD counts as worse whatever its timings say.
func compare(w io.Writer, oldSet, newSet *resultSet) (worse int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tchange\tbound\tverdict")
	for _, wd := range workloads {
		o, n := oldSet.Workloads[wd.Name], newSet.Workloads[wd.Name]
		if o == nil || n == nil {
			continue
		}
		for _, d := range endToEnd {
			os, ns := o.Summary[d.Name], n.Summary[d.Name]
			change := 0.0
			if os.Value != 0 {
				change = (ns.Value - os.Value) / os.Value
			}
			worsening := change
			if d.Better == "higher" {
				worsening = -change
			}
			verdict := "same"
			switch {
			case spread(os) > d.Bound:
				verdict = "unresolved"
			case worsening > d.Bound:
				verdict = "worse"
				worse++
			case worsening < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.1f%%\t%.0f%%\t%s\n",
				wd.Name, d.Name, d.Unit, os.Value, os.Q1, os.Q3, ns.Value, ns.Q1, ns.Q3, 100*change, 100*d.Bound, verdict)
		}
		of, nf := failedFrac(o), failedFrac(n)
		verdict := "same"
		if nf > of {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\tratio\t%.6g\t%.6g\t\t\t%s\n", wd.Name, of, nf, verdict)
	}
	tw.Flush()
	return worse
}

func failedFrac(ws *workloadSet) float64 {
	var attempted, failed int64
	for _, r := range ws.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rs, nil
}
