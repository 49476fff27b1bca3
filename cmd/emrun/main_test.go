package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphkeys"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
)

// testInputs writes the default synthetic workload (recursive keys,
// planted duplicates) as a graph file and a keys file. A twin of one
// planted entity's out-edges turns its pair into a class of three.
func testInputs(t *testing.T) (graphPath, keysPath string) {
	t.Helper()
	w, err := gen.Synthetic(gen.DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := w.Graph.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	planted := w.Graph.Label(graph.NodeID(w.Expected[0].A)) + ":"
	for _, line := range strings.SplitAfter(text.String(), "\n") {
		if strings.HasPrefix(line, planted) {
			text.WriteString("twin_" + line)
		}
	}
	dir := t.TempDir()
	graphPath, keysPath = filepath.Join(dir, "w.graph"), filepath.Join(dir, "w.keys")
	if err := os.WriteFile(graphPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keysPath, []byte(w.Keys.Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	return graphPath, keysPath
}

func runEmrun(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestIncrementalRefusesBatchFlags: -incremental runs the Matcher and
// prints rounds, so an explicitly set -engine, -p, -classes or
// -validate would be ignored; each is refused with exit status 2 and its name,
// before any file is read. Without them the mode runs, and its header
// names no engine and no p. Mutant killed: the fs.Visit check deleted (exit 0,
// the flag silently ignored).
func TestIncrementalRefusesBatchFlags(t *testing.T) {
	graphPath, keysPath := testInputs(t)
	for _, flag := range []string{"-engine=chase", "-p=2", "-classes", "-validate", "-validate=false"} {
		code, _, stderr := runEmrun("-graph", "missing.graph", "-keys", "missing.keys", "-incremental", flag)
		name := strings.TrimPrefix(strings.SplitN(flag, "=", 2)[0], "-")
		if code != 2 || !strings.Contains(stderr, "-"+name+" does not apply to -incremental") {
			t.Errorf("-incremental %s: exit %d, stderr %q; want 2 naming -%s", flag, code, stderr, name)
		}
	}
	code, stdout, stderr := runEmrun("-graph", graphPath, "-keys", keysPath, "-incremental", "-rounds", "1", "-verify")
	if code != 0 || strings.Contains(stderr, "engine") || strings.Contains(stderr, "p=") || strings.Count(stdout, "round 1 ") != 2 {
		t.Fatalf("-incremental -rounds 1 -verify: exit %d\nstdout %q\nstderr %q", code, stdout, stderr)
	}
}

// TestBatchPathUnchanged: a batch run prints chase(G, Σ) as the library
// computes it, one pair or one class a line, the same for every engine
// named. Mutant killed: -classes printing pairs.
func TestBatchPathUnchanged(t *testing.T) {
	graphPath, keysPath := testInputs(t)
	f, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphkeys.LoadGraph(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(keysPath)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := graphkeys.ParseKeys(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := graphkeys.Match(g, ks, graphkeys.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pairs, classes strings.Builder
	for _, m := range res.Matches {
		fmt.Fprintf(&pairs, "%s\t%s\n", m.A, m.B)
	}
	for _, cls := range res.Classes {
		fmt.Fprintln(&classes, strings.Join(cls, "\t"))
	}
	if len(res.Matches) == 0 || pairs.String() == classes.String() {
		t.Fatalf("%d matches in %d classes print alike: the input cannot tell pairs from classes", len(res.Matches), len(res.Classes))
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "chase"}, pairs.String()},
		{[]string{"-engine", "emoptvc", "-p", "2"}, pairs.String()},
		{[]string{"-engine", "pchase", "-classes"}, classes.String()},
	} {
		code, stdout, stderr := runEmrun(append([]string{"-graph", graphPath, "-keys", keysPath}, tc.args...)...)
		if code != 0 || stdout != tc.want {
			t.Errorf("%v: exit %d, %d bytes out (want %d)\nstderr %q", tc.args, code, len(stdout), len(tc.want), stderr)
		}
	}
	if code, stdout, _ := runEmrun("-graph", graphPath, "-keys", keysPath, "-engine", "nope"); code != 1 || stdout != "" {
		t.Errorf("unknown engine: exit %d, stdout %q", code, stdout)
	}
}
