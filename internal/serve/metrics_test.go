package serve

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"graphkeys"
	"graphkeys/internal/wal"
)

// unfedSeries are the registered series a full drive of the server
// leaves where they started, each with the reason.
var unfedSeries = map[string]string{
	"serve.inflight":        "a level: back at 0 once a request is answered, and the drive samples between requests",
	"engine.active_workers": "a level: back at 0 once engine.Parallel returns",
	"serve.events_dropped_subscribers": "moves only when a subscriber falls a whole event ring behind, " +
		"which a subscriber that reads cannot do",
	"engine.parallel_calls":          "a Matcher's chases and repair passes are sequential; only the batch engines fan out",
	"engine.parallel_items":          "as engine.parallel_calls",
	"match.pairing_calls":            "the pairing filter runs only in MapReduceOpt and VertexCentricOpt, never in a Matcher",
	"match.pairing_tuples_seeded":    "as match.pairing_calls",
	"match.pairing_tuples_surviving": "as match.pairing_calls",
	"match.pairing_support_checks":   "as match.pairing_calls",
}

// TestEveryInstrumentFed drives an in-process Server over a durable
// matcher through every endpoint, a Writer, a Snapshot and the reopen a
// failed group commit makes, sampling the registry after each step.
// Every registered series must have moved in some sample or be in
// unfedSeries, and the README's metrics catalog must name exactly the
// registered series: an instrument nothing feeds, or one the catalog
// does not name, fails here.
func TestEveryInstrumentFed(t *testing.T) {
	dir := t.TempDir()
	m, err := graphkeys.OpenMatcher(dir, testKeySet(t), graphkeys.Options{Durability: graphkeys.DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Options{EventRing: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()

	moved := make(map[string]bool)
	var registered []string
	sample := func() {
		snap := m.Metrics()
		registered = registered[:0]
		for name, v := range snap.Counters {
			registered = append(registered, name)
			moved[name] = moved[name] || v != 0
		}
		for name, v := range snap.Gauges {
			registered = append(registered, name)
			moved[name] = moved[name] || v != 0
		}
		for name, h := range snap.Histograms {
			registered = append(registered, name)
			moved[name] = moved[name] || h.Count != 0
		}
	}
	get := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		sample()
	}
	apply := func(body string, want int) {
		t.Helper()
		if code, out := postApply(t, ts.URL, body); code != want {
			t.Fatalf("POST /apply %s: status %d (%+v), want %d", body, code, out, want)
		}
		sample()
	}

	events, unsubscribe := subscribeSSE(t, ts.URL+"/subscribe")
	defer unsubscribe()
	sample()
	apply(addPersonDelta("alice", "al", "a@x.org"), http.StatusOK)
	if ev := <-events; len(ev.Added) != 1 {
		t.Fatalf("the merge published %+v, want one added pair", ev)
	}
	// A delta that coalesces to nothing, and one that fails validation.
	apply(`{"deltas":[{"ops":[{"op":"add_value","s":"alice","p":"nick","v":"a"},{"op":"remove_value","s":"alice","p":"nick","v":"a"}]}]}`, http.StatusOK)
	apply(`{"deltas":[{"ops":[{"op":"add_value","s":"nobody","p":"email","v":"b"}]}]}`, http.StatusUnprocessableEntity)
	for _, path := range []string{"/same?a=alice&b=al", "/entity?id=alice", "/entities?p=email&v=a@x.org", "/explain?a=alice&b=al",
		"/seq", "/healthz", "/readyz", "/debug/state", "/metrics", "/vars", "/events"} {
		get(path, http.StatusOK)
	}
	// A removal splits the class again: its step is invalidated.
	apply(`{"deltas":[{"ops":[{"op":"remove_value","s":"al","p":"email","v":"a@x.org"}]}]}`, http.StatusOK)

	// A failed group commit rewinds the log and re-opens the directory
	// in place; the next body applies.
	restore := wal.FailSyncs(errors.New("injected fsync failure"), false)
	apply(addPersonDelta("bob", "bo", "b@x.org"), http.StatusServiceUnavailable)
	restore()
	apply(addPersonDelta("bob", "bo", "b@x.org"), http.StatusOK)

	w := m.NewWriter()
	if err := w.Apply(graphkeys.NewDelta().AddEntity("carol", "person")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(graphkeys.NewDelta().AddValueTriple("nobody", "email", "c@x.org")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("a Writer batch giving an unknown entity an email succeeded")
	}
	sample()
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	sample()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sample()

	slices.Sort(registered)
	for _, name := range registered {
		if _, listed := unfedSeries[name]; listed == moved[name] {
			if listed {
				t.Errorf("%s moved, yet unfedSeries says %q", name, unfedSeries[name])
			} else {
				t.Errorf("%s never moved: feed it, or list it in unfedSeries with the reason", name)
			}
		}
	}
	for name := range unfedSeries {
		if _, ok := moved[name]; !ok {
			t.Errorf("unfedSeries lists %s, which is not registered", name)
		}
	}
	if catalog := readmeCatalog(t); !slices.Equal(catalog, registered) {
		t.Errorf("README's metrics catalog names\n%v\nthe registry holds\n%v", catalog, registered)
	}
}

// readmeCatalog returns, sorted, every metric name the README's
// Observability catalog names: the backquoted names in the first
// column of its table.
func readmeCatalog(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "| Metric | Kind | Meaning |\n|---|---|---|\n")
	if !ok {
		t.Fatal("README has no metrics catalog")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var names []string
	name := regexp.MustCompile("`([^`]+)`")
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 2 {
			t.Fatalf("catalog row %q has no cells", row)
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			names = append(names, m[1])
		}
	}
	slices.Sort(names)
	return names
}
