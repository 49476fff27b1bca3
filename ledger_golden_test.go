package graphkeys_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphkeys"
	"graphkeys/internal/chase"
	"graphkeys/internal/emmr"
	"graphkeys/internal/emvc"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
	"graphkeys/internal/testutil"
)

var updateLedgerCounts = flag.Bool("update", false, "rewrite ledger_counts_golden.txt from the current code")

// TestLedgerCountsGolden pins the work counts of the ledger's inputs
// (ledgerInputs), one line per input and run: the sequential and the
// two-worker chase, EMOptMR, EMVF2MR and EMOptVC, each with the match.*
// counters of its own registry, and a 300-flip replay through a durable
// Matcher.
// A line names the run, then a SHA-256 prefix over its pairs, then its
// counts; the whole line must repeat exactly (testutil.Golden with no
// may-fall columns): a change that moves a count reruns with -update,
// and its diff shows which. Every count is the same at any GOMAXPROCS.
func TestLedgerCountsGolden(t *testing.T) {
	var got strings.Builder
	for i, in := range ledgerInputs {
		w, text := ledgerInput(t, i)
		row := func(run, hash string, counts ...any) {
			fmt.Fprintf(&got, "%s %s %s", in.name, run, hash)
			for k := 0; k < len(counts); k += 2 {
				fmt.Fprintf(&got, " %s=%v", counts[k], counts[k+1])
			}
			got.WriteByte('\n')
		}
		for _, p := range []int{1, 2} {
			reg := obs.NewRegistry()
			res, err := chase.Run(w.Graph, w.Keys, chase.Options{Parallelism: p, Match: match.Options{Obs: match.NewObs(reg)}})
			if err != nil {
				t.Fatal(err)
			}
			row(fmt.Sprintf("chase p=%d", p), pairsHash(res.Pairs), append([]any{
				"candidates", res.Candidates, "steps", len(res.Steps), "iso", res.IsoSteps}, matchCounts(reg)...)...)
		}
		reg := obs.NewRegistry()
		mr, err := emmr.Run(w.Graph, w.Keys, emmr.Config{P: 2, Variant: emmr.Opt, Match: match.Options{Obs: match.NewObs(reg)}})
		if err != nil {
			t.Fatal(err)
		}
		st := mr.Stats
		row("EMOptMR p=2", pairsHash(mr.Pairs), append([]any{
			"rounds", st.Rounds, "cands", st.Candidates, "unfiltered", st.CandidatesUnfiltered,
			"checks", st.Checks, "skipped", st.SkippedByDependency, "iso", st.IsoSteps,
			"direct", st.IdentifiedDirect, "nbhd", st.NeighborhoodNodes, "reduced", st.ReducedNeighborhoodNodes,
			"kvs", st.KVs}, matchCounts(reg)...)...)
		reg = obs.NewRegistry()
		vf, err := emmr.Run(w.Graph, w.Keys, emmr.Config{P: 2, Variant: emmr.VF2, Match: match.Options{Obs: match.NewObs(reg)}})
		if err != nil {
			t.Fatal(err)
		}
		fs := vf.Stats
		row("EMVF2MR p=2", pairsHash(vf.Pairs), append([]any{
			"rounds", fs.Rounds, "cands", fs.Candidates, "checks", fs.Checks, "iso", fs.IsoSteps}, matchCounts(reg)...)...)
		reg = obs.NewRegistry()
		vc, err := emvc.Run(w.Graph, w.Keys, emvc.Config{P: 2, Variant: emvc.Opt, Match: match.Options{Obs: match.NewObs(reg)}})
		if err != nil {
			t.Fatal(err)
		}
		vs := vc.Stats
		row("EMOptVC p=2", pairsHash(vc.Pairs), append([]any{
			"cands", vs.Candidates, "nodes", vs.ProductNodes, "messages", vs.Messages, "local", vs.LocalSteps,
			"increments", vs.Increments, "identified", vs.Identified}, matchCounts(reg)...)...)
		hash, counts := flipReplay(t, text, w.Keys.Format())
		row("replay flips=300", hash, counts...)
	}
	testutil.Golden(t, "ledger_counts_golden.txt", got.String(), 0, *updateLedgerCounts)
}

// pairsHash is the first 16 hex digits of a SHA-256 over pairs.
func pairsHash[P any](pairs []P) string {
	return fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%v\n", pairs)))[:16]
}

// matchCounts lists the match.* counters of reg as name, value pairs,
// by name.
func matchCounts(reg *obs.Registry) []any {
	c := reg.Snapshot().Counters
	var out []any
	for _, name := range slices.Sorted(maps.Keys(c)) {
		if strings.HasPrefix(name, "match.") {
			out = append(out, name, c[name])
		}
	}
	return out
}

// flipReplay seeds a durable Matcher with the graph text and applies
// 300 one-op deltas to it: 150 value triples of the planted chains, in
// a seeded order, removed and put back ten at a time, as the ledger's
// write ladder flips them. It returns the hash of the final pairs and
// the repair's counts per delta plus the WAL records written.
func flipReplay(t *testing.T, text []byte, keysText string) (string, []any) {
	t.Helper()
	g, err := graphkeys.LoadGraph(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	ks, err := graphkeys.ParseKeys(keysText)
	if err != nil {
		t.Fatal(err)
	}
	var flips [][3]string
	g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
		if isValue && strings.HasPrefix(string(s), "c_") {
			flips = append(flips, [3]string{string(s), p, o})
		}
	})
	slices.SortFunc(flips, func(a, b [3]string) int { return slices.Compare(a[:], b[:]) })
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(flips), func(i, j int) { flips[i], flips[j] = flips[j], flips[i] })
	flips = flips[:150]

	m, err := graphkeys.SeedMatcher(t.TempDir(), g, ks, graphkeys.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := m.Metrics().Counters
	deltas := 0
	for lo := 0; lo < len(flips); lo += 10 {
		for _, add := range []bool{false, true} {
			for _, f := range flips[lo : lo+10] {
				d := graphkeys.NewDelta()
				if add {
					d.AddValueTriple(graphkeys.EntityID(f[0]), f[1], f[2])
				} else {
					d.RemoveValueTriple(graphkeys.EntityID(f[0]), f[1], f[2])
				}
				if _, _, err := m.Apply(d); err != nil {
					t.Fatal(err)
				}
				deltas++
			}
		}
	}
	after := m.Metrics().Counters
	perDelta := func(name string) string {
		return fmt.Sprintf("%.3f", float64(after[name]-before[name])/float64(deltas))
	}
	return pairsHash(m.Result().Matches), []any{
		"inc.checked/delta", perDelta("inc.checked"), "inc.region/delta", perDelta("inc.region"),
		"inc.suspects/delta", perDelta("inc.suspects"), "wal.records", after["wal.records"] - before["wal.records"]}
}
