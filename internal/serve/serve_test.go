package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphkeys"
)

// testKeys is one value-anchored key: two persons sharing an email are
// the same entity.
const testKeys = "key P for person {\n    x -email-> e*\n}\n"

func testKeySet(t *testing.T) *graphkeys.KeySet {
	t.Helper()
	ks, err := graphkeys.ParseKeys(testKeys)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// newTestServer serves a durable matcher on dir, or an in-memory one
// when dir is empty.
func newTestServer(t *testing.T, dir string) (*Server, *graphkeys.Matcher, *httptest.Server) {
	t.Helper()
	ks := testKeySet(t)
	var m *graphkeys.Matcher
	var err error
	if dir != "" {
		m, err = graphkeys.OpenMatcher(dir, ks, graphkeys.Options{})
	} else {
		m, err = graphkeys.NewMatcher(graphkeys.NewGraph(), ks, graphkeys.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Options{EventRing: 64})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, m, ts
}

// fetchJSON sends one request and decodes the JSON answer into out
// (when non-nil). It takes no testing.T, so any goroutine may call it.
func fetchJSON(method, url, body string, out any) (int, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	code, err := fetchJSON("GET", url, "", out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// applyResp is a POST /apply answer: the seq after the request and one
// outcome per attempted delta (Error is also the 400/413 reason).
type applyResp struct {
	Seq    uint64    `json:"seq"`
	Deltas []outcome `json:"deltas"`
	Error  string    `json:"error"`
}

// outcome is one delta's part of an /apply answer: a seq or an error.
type outcome struct {
	Seq   *uint64 `json:"seq"`
	Error string  `json:"error"`
}

func (o outcome) String() string {
	if o.Seq != nil {
		return fmt.Sprintf("seq %d", *o.Seq)
	}
	return fmt.Sprintf("error %q", o.Error)
}

func postApply(t *testing.T, base string, body string) (int, applyResp) {
	t.Helper()
	var out applyResp
	code, err := fetchJSON("POST", base+"/apply", body, &out)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// sameResp is a GET /same answer.
type sameResp struct {
	Same bool   `json:"same"`
	Seq  uint64 `json:"seq"`
}

// personOps is the JSON delta merging two persons via a shared email.
func personOps(a, b, email string) string {
	return fmt.Sprintf(`{"ops":[
		{"op":"add_entity","id":"%s","type":"person"},
		{"op":"add_entity","id":"%s","type":"person"},
		{"op":"add_value","s":"%s","p":"email","v":"%s"},
		{"op":"add_value","s":"%s","p":"email","v":"%s"}
	]}`, a, b, a, email, b, email)
}

// addPersonDelta is an /apply body of the one delta personOps builds.
func addPersonDelta(a, b, email string) string {
	return `{"deltas":[` + personOps(a, b, email) + `]}`
}

// TestServeEndpoints drives the point-read surface through HTTP.
func TestServeEndpoints(t *testing.T) {
	_, m, ts := newTestServer(t, "")
	// The benchmark still sends ?wait=1: accepted, and the answer is the
	// same as without it.
	var resp applyResp
	code, err := fetchJSON("POST", ts.URL+"/apply?wait=1", addPersonDelta("alice", "al", "a@x.org"), &resp)
	if err != nil || code != http.StatusOK || len(resp.Deltas) != 1 || resp.Deltas[0].Seq == nil {
		t.Fatalf("apply?wait=1: status %d (%+v), %v", code, resp, err)
	}

	var same sameResp
	if code := getJSON(t, ts.URL+"/same?a=alice&b=al", &same); code != 200 || !same.Same {
		t.Fatalf("/same?a=alice&b=al: status %d same=%v", code, same.Same)
	}
	if code := getJSON(t, ts.URL+"/same?a=alice&b=nobody", &same); code != 200 || same.Same {
		t.Fatalf("/same with unknown entity: status %d same=%v", code, same.Same)
	}

	var ent struct {
		Canonical string `json:"canonical"`
	}
	var ent2 struct {
		Canonical string `json:"canonical"`
	}
	if code := getJSON(t, ts.URL+"/entity?id=alice", &ent); code != 200 {
		t.Fatalf("/entity?id=alice: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/entity?id=al", &ent2); code != 200 {
		t.Fatalf("/entity?id=al: status %d", code)
	}
	if ent.Canonical != ent2.Canonical {
		t.Fatalf("canonical(alice)=%q != canonical(al)=%q", ent.Canonical, ent2.Canonical)
	}
	if code := getJSON(t, ts.URL+"/entity?id=nobody", nil); code != http.StatusNotFound {
		t.Fatalf("/entity unknown: status %d, want 404", code)
	}

	var ents struct {
		Entities []string `json:"entities"`
	}
	if code := getJSON(t, ts.URL+"/entities?p=email&v=a@x.org", &ents); code != 200 {
		t.Fatalf("/entities: status %d", code)
	}
	if len(ents.Entities) != 2 {
		t.Fatalf("/entities = %v, want both persons", ents.Entities)
	}

	var ex struct {
		Steps []struct {
			Key string `json:"Key"`
		} `json:"Steps"`
	}
	if code := getJSON(t, ts.URL+"/explain?a=alice&b=al", &ex); code != 200 || len(ex.Steps) == 0 {
		t.Fatalf("/explain: status %d steps=%d", code, len(ex.Steps))
	}
	if code := getJSON(t, ts.URL+"/explain?a=alice&b=nobody", nil); code != http.StatusNotFound {
		t.Fatalf("/explain unidentified: status %d, want 404", code)
	}

	// Bad requests.
	if code := getJSON(t, ts.URL+"/same?a=alice", nil); code != http.StatusBadRequest {
		t.Fatalf("/same missing b: status %d, want 400", code)
	}
	if code, _ := postApply(t, ts.URL, `{"deltas":[{"ops":[{"op":"bogus"}]}]}`); code != http.StatusBadRequest {
		t.Fatalf("apply with unknown op: status %d, want 400", code)
	}

	// The metrics surface is mounted and carries serve.* instruments.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	for _, want := range []string{"serve_same_ns", "serve_apply_ns", "engine_parallel_calls"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	_ = m
}

// sseClient reads change events off a /subscribe stream into a
// channel. It stops at stream end.
type sseEvent struct {
	Seq     uint64           `json:"seq"`
	Added   []graphkeys.Pair `json:"added"`
	Removed []graphkeys.Pair `json:"removed"`
	reset   bool
}

func subscribeSSE(t *testing.T, url string) (<-chan sseEvent, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	ch := make(chan sseEvent, 256)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var isReset bool
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				isReset = strings.TrimPrefix(line, "event: ") == "reset"
			case strings.HasPrefix(line, "data: "):
				var ev sseEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					return
				}
				ev.reset = isReset
				ch <- ev
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// pairKey normalizes a pair into an order-independent map key.
func pairKey(p graphkeys.Pair) [2]string {
	a, b := string(p.A), string(p.B)
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// TestServeConcurrentSSEDifferential is the end-to-end acceptance
// test: a durable matcher serves concurrent /same + /entities readers
// while /apply streams mutations (merges and splits), and an SSE
// subscriber's events, replayed over the initial pair set, reproduce
// exactly Matcher.Result(). Run with -race in CI.
func TestServeConcurrentSSEDifferential(t *testing.T) {
	_, m, ts := newTestServer(t, t.TempDir())

	// Seed a couple of groups so readers have something to hit.
	if code, resp := postApply(t, ts.URL, addPersonDelta("seed_a", "seed_b", "seed@x.org")); code != http.StatusOK {
		t.Fatalf("seed: status %d (%v)", code, resp)
	}
	startSeq := m.Seq()
	initial := make(map[[2]string]bool)
	for _, p := range m.Result().Matches {
		initial[pairKey(p)] = true
	}

	events, stop := subscribeSSE(t, fmt.Sprintf("%s/subscribe?from=%d", ts.URL, startSeq))
	defer stop()

	const (
		writers   = 4
		readers   = 4
		perWriter = 8
	)
	var wg sync.WaitGroup
	stopRead := make(chan struct{})

	// Readers: point reads must never error while writes stream.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				g := (r + i) % writers
				urls := []string{
					fmt.Sprintf("%s/same?a=w%d_%d_a&b=w%d_%d_b", ts.URL, g, i%perWriter, g, i%perWriter),
					fmt.Sprintf("%s/entities?p=email&v=w%d_%d@x.org", ts.URL, g, i%perWriter),
					ts.URL + "/same?a=seed_a&b=seed_b",
					ts.URL + "/seq",
				}
				resp, err := http.Get(urls[i%len(urls)])
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader: status %d", resp.StatusCode)
					return
				}
			}
		}(r)
	}

	// Writers: merge two fresh persons per step, then split some of
	// them again by removing one side's email. Each writer reads its
	// write back on its next request: /same must reflect it at a seq no
	// lower than the one /apply answered. Every write is effective, so
	// it is logged at a seq above any this writer saw before it, and
	// the seqs one writer sees never go backwards.
	werr := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last uint64
			write := func(what, body, a, b string, wantSame bool) error {
				var ar applyResp
				if code, err := fetchJSON("POST", ts.URL+"/apply", body, &ar); err != nil || code != http.StatusOK {
					return fmt.Errorf("writer %d %s: status %d (%+v), %v", w, what, code, ar, err)
				}
				var sr sameResp
				if code, err := fetchJSON("GET", fmt.Sprintf("%s/same?a=%s&b=%s", ts.URL, a, b), "", &sr); err != nil || code != http.StatusOK {
					return fmt.Errorf("writer %d %s: read back: status %d, %v", w, what, code, err)
				}
				if sr.Same != wantSame {
					return fmt.Errorf("writer %d %s: acknowledged at seq %d, then /same = %v at seq %d", w, what, ar.Seq, sr.Same, sr.Seq)
				}
				if ar.Seq <= last || sr.Seq < ar.Seq {
					return fmt.Errorf("writer %d %s: seen seq %d, then acknowledged at %d, then /same at %d", w, what, last, ar.Seq, sr.Seq)
				}
				last = sr.Seq
				return nil
			}
			for i := 0; i < perWriter; i++ {
				a, b := fmt.Sprintf("w%d_%d_a", w, i), fmt.Sprintf("w%d_%d_b", w, i)
				email := fmt.Sprintf("w%d_%d@x.org", w, i)
				if err := write(fmt.Sprintf("merge %d", i), addPersonDelta(a, b, email), a, b, true); err != nil {
					werr <- err
					return
				}
				if i%2 == 1 {
					// Split the pair again: removing b's email destroys
					// the witness.
					body := fmt.Sprintf(`{"deltas":[{"ops":[{"op":"remove_value","s":"%s","p":"email","v":"%s"}]}]}`, b, email)
					if err := write(fmt.Sprintf("split %d", i), body, a, b, false); err != nil {
						werr <- err
						return
					}
				}
			}
			werr <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
	}
	close(stopRead)

	// Sentinel: a final merge whose event marks "you have seen
	// everything" — every writer's /apply has answered, so every
	// earlier delta has applied and the sentinel's event is the last
	// one published.
	if code, resp := postApply(t, ts.URL, addPersonDelta("fin_a", "fin_b", "fin@x.org")); code != http.StatusOK {
		t.Fatalf("sentinel: status %d (%v)", code, resp)
	}
	wg.Wait()

	got := make(map[[2]string]bool)
	for k := range initial {
		got[k] = true
	}
	sentinel := pairKey(graphkeys.Pair{A: "fin_a", B: "fin_b"})
	deadline := time.After(30 * time.Second)
	var lastSeq uint64
loop:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("SSE stream ended before the sentinel event")
			}
			if ev.reset {
				t.Fatalf("unexpected reset event (ring too small for workload?)")
			}
			if ev.Seq < lastSeq {
				t.Fatalf("events out of order: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			for _, p := range ev.Added {
				got[pairKey(p)] = true
			}
			for _, p := range ev.Removed {
				delete(got, pairKey(p))
			}
			if got[sentinel] {
				break loop
			}
		case <-deadline:
			t.Fatal("timed out waiting for the sentinel event")
		}
	}

	want := make(map[[2]string]bool)
	for _, p := range m.Result().Matches {
		want[pairKey(p)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d pairs, matcher has %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("pair %v in Result but not reconstructed from events", k)
		}
	}
}

// TestServeSSEResumeAndReset: a subscriber resuming from a seq still
// in the ring replays the missed events; one resuming from before the
// ring's oldest retained event gets a reset frame first.
func TestServeSSEResumeAndReset(t *testing.T) {
	_, m, ts := newTestServer(t, "")

	// Produce more events than the 64-slot ring holds.
	for i := 0; i < 80; i++ {
		a, b := fmt.Sprintf("r%d_a", i), fmt.Sprintf("r%d_b", i)
		if code, resp := postApply(t, ts.URL, addPersonDelta(a, b, fmt.Sprintf("r%d@x.org", i))); code != http.StatusOK {
			t.Fatalf("apply %d: status %d (%v)", i, code, resp)
		}
	}
	cur := m.Seq()

	// Resume from the current seq: nothing to replay, and the next
	// event arrives live.
	events, stop := subscribeSSE(t, fmt.Sprintf("%s/subscribe?from=%d", ts.URL, cur))
	defer stop()
	if code, resp := postApply(t, ts.URL, addPersonDelta("live_a", "live_b", "live@x.org")); code != http.StatusOK {
		t.Fatalf("live apply: status %d (%v)", code, resp)
	}
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("stream closed")
		}
		if ev.reset {
			t.Fatalf("resume from current seq must not reset")
		}
		found := false
		for _, p := range ev.Added {
			if pairKey(p) == pairKey(graphkeys.Pair{A: "live_a", B: "live_b"}) {
				found = true
			}
		}
		if !found {
			t.Fatalf("live event lacks the expected pair: %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for live event")
	}

	// Resume from 0: that history left the 64-slot ring long ago — the
	// first frame must be a reset.
	events2, stop2 := subscribeSSE(t, ts.URL+"/subscribe?from=0")
	defer stop2()
	select {
	case ev, ok := <-events2:
		if !ok {
			t.Fatal("stream closed")
		}
		if !ev.reset {
			t.Fatalf("resume from 0 after eviction: first frame %+v, want reset", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for reset frame")
	}
}

// TestServeClose: a write acknowledged before Close is visible after it
// and in the directory a reopen recovers, at the acknowledged seq;
// /apply after Close answers 503 "closing" and applies nothing; reads
// keep serving.
func TestServeClose(t *testing.T) {
	dir := t.TempDir()
	s, m, ts := newTestServer(t, dir)
	code, resp := postApply(t, ts.URL, addPersonDelta("c_a", "c_b", "c@x.org"))
	if code != http.StatusOK {
		t.Fatalf("apply: status %d (%+v)", code, resp)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !m.Same("c_a", "c_b") {
		t.Fatal("delta acknowledged before Close is not visible after it")
	}
	code, after := postApply(t, ts.URL, addPersonDelta("d_a", "d_b", "d@x.org"))
	if code != http.StatusServiceUnavailable || len(after.Deltas) != 1 || !strings.Contains(after.Deltas[0].Error, "closing") {
		t.Fatalf("apply after close: status %d (%+v), want 503 closing", code, after)
	}
	var same sameResp
	if code := getJSON(t, ts.URL+"/same?a=c_a&b=c_b", &same); code != 200 || !same.Same {
		t.Fatalf("read after close: status %d same=%v", code, same.Same)
	}

	re, err := graphkeys.OpenMatcher(dir, testKeySet(t), graphkeys.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Same("c_a", "c_b") || re.Seq() != resp.Seq {
		t.Fatalf("reopened: Same(c_a, c_b) = %v at seq %d; want true at the acknowledged seq %d", re.Same("c_a", "c_b"), re.Seq(), resp.Seq)
	}
	if _, ok := re.Canonical("d_a"); ok {
		t.Fatal("a delta refused after Close was recovered")
	}
}

// TestServeRejectedDeltaIsolated: a delta that fails validation answers
// 422 to its submitter alone. The rest of its body applies, concurrent
// and later requests from other clients answer 200, /readyz stays 200,
// serve.apply_rejected counts it, and the matcher still equals a
// from-scratch Match.
func TestServeRejectedDeltaIsolated(t *testing.T) {
	_, m, ts := newTestServer(t, t.TempDir())

	const others, perOther = 3, 4
	start := make(chan struct{})
	errs := make(chan error, others)
	var wg sync.WaitGroup
	for c := 0; c < others; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perOther; i++ {
				tag := fmt.Sprintf("o%d_%d", c, i)
				var ar applyResp
				if code, err := fetchJSON("POST", ts.URL+"/apply", addPersonDelta(tag+"_a", tag+"_b", tag+"@x.org"), &ar); err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d beside the poison: status %d (%+v), %v", c, i, code, ar, err)
					return
				}
			}
		}(c)
	}
	poison := `{"ops":[{"op":"add_edge","s":"ghost","p":"knows","o":"g1_a"}]}`
	body := `{"deltas":[` + personOps("g1_a", "g1_b", "g1@x.org") + `,` + poison + `,` + personOps("g2_a", "g2_b", "g2@x.org") + `]}`
	close(start)
	code, resp := postApply(t, ts.URL, body)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	d := resp.Deltas
	if code != http.StatusUnprocessableEntity || len(d) != 3 || d[0].Seq == nil || d[1].Seq != nil || d[2].Seq == nil ||
		!strings.Contains(d[1].Error, `unknown subject entity "ghost"`) {
		t.Fatalf("poisoned body: status %d (%+v), want 422 with outcomes [seq, error, seq]", code, resp)
	}
	if *d[2].Seq <= *d[0].Seq || resp.Seq < *d[2].Seq {
		t.Fatalf("poisoned body: outcome seqs %d, %d and request seq %d are not increasing", *d[0].Seq, *d[2].Seq, resp.Seq)
	}
	if !m.Same("g1_a", "g1_b") || !m.Same("g2_a", "g2_b") {
		t.Fatal("the good deltas around the poison did not apply")
	}
	if code, resp := postApply(t, ts.URL, addPersonDelta("late_a", "late_b", "late@x.org")); code != http.StatusOK {
		t.Fatalf("a later client's apply: status %d (%+v), want 200", code, resp)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz after a rejected delta: status %d, want 200", code)
	}
	if v := m.Metrics().Counters["serve.apply_rejected"]; v != 1 {
		t.Fatalf("serve.apply_rejected = %d, want 1", v)
	}

	full, err := graphkeys.Match(m.Graph(), testKeySet(t), graphkeys.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := make(map[[2]string]bool), make(map[[2]string]bool)
	for _, p := range m.Result().Matches {
		got[pairKey(p)] = true
	}
	for _, p := range full.Matches {
		want[pairKey(p)] = true
	}
	if len(got) != len(want) || len(want) != others*perOther+3 {
		t.Fatalf("matcher holds %d pairs, a from-scratch Match %d; want %d", len(got), len(want), others*perOther+3)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("pair %v from a from-scratch Match is missing from the matcher", k)
		}
	}
}

// TestServeBodyIsOnePass: a body of three merging deltas is one
// ApplyBatch — one repair pass (inc.repairs moves by exactly 1) and one
// SSE event, whose seq is the answer's seq and which carries all three
// merges; the next body's event follows it directly. Mutant killed: the
// per-delta Apply loop /apply used to run (3 passes, 3 events, the first
// at the first delta's seq).
func TestServeBodyIsOnePass(t *testing.T) {
	_, m, ts := newTestServer(t, t.TempDir())
	events, stop := subscribeSSE(t, fmt.Sprintf("%s/subscribe?from=%d", ts.URL, m.Seq()))
	defer stop()
	next := func() sseEvent {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok || ev.reset {
				t.Fatalf("SSE stream: closed or reset (%+v)", ev)
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for an SSE event")
		}
		return sseEvent{}
	}

	repairs := m.Metrics().Counters["inc.repairs"]
	body := `{"deltas":[` + personOps("b1_a", "b1_b", "b1@x.org") + `,` + personOps("b2_a", "b2_b", "b2@x.org") + `,` + personOps("b3_a", "b3_b", "b3@x.org") + `]}`
	code, resp := postApply(t, ts.URL, body)
	if code != http.StatusOK || len(resp.Deltas) != 3 {
		t.Fatalf("three-delta body: status %d (%+v), want 200 with three outcomes", code, resp)
	}
	if d := m.Metrics().Counters["inc.repairs"] - repairs; d != 1 {
		t.Fatalf("three-delta body ran %d repair passes, want 1", d)
	}
	if ev := next(); ev.Seq != resp.Seq || len(ev.Added) != 3 || len(ev.Removed) != 0 {
		t.Fatalf("three-delta body's event: seq %d with %d added, %d removed; want seq %d with 3 added", ev.Seq, len(ev.Added), len(ev.Removed), resp.Seq)
	}
	code, resp = postApply(t, ts.URL, addPersonDelta("b4_a", "b4_b", "b4@x.org"))
	if code != http.StatusOK {
		t.Fatalf("next body: status %d (%+v)", code, resp)
	}
	if ev := next(); ev.Seq != resp.Seq {
		t.Fatalf("the event after the three-delta body's is at seq %d, want the next body's seq %d", ev.Seq, resp.Seq)
	}
}

// TestServePointReadsNotTorn: a point read describes one delta
// boundary, the one its seq names. One writer adds and removes, in
// turn, the email that merges b into a, so the pair is merged exactly
// at the even seqs; it flips until the readers made enough reads. Concurrent /same answers must agree with their own
// canonicals and with the parity of their seq; an /entity answer for b
// at an odd seq must name b itself.
func TestServePointReadsNotTorn(t *testing.T) {
	_, m, ts := newTestServer(t, t.TempDir())
	seed := graphkeys.NewDelta().AddEntity("a", "person").AddEntity("b", "person").
		AddValueTriple("a", "email", "x").AddValueTriple("b", "email", "y")
	if _, _, err := m.Apply(seed); err != nil || m.Seq() != 1 {
		t.Fatalf("seed: seq %d, %v; want seq 1", m.Seq(), err)
	}

	const minReads, maxFlips, readers = 400, 100_000, 4
	done := make(chan struct{})
	var (
		mu     sync.Mutex
		reads  int
		torn   int
		sample string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		reads++
		if format != "" {
			if torn++; sample == "" {
				sample = fmt.Sprintf(format, args...)
			}
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if r%2 == 0 {
					var same struct {
						Same       bool   `json:"same"`
						Seq        uint64 `json:"seq"`
						CanonicalA string `json:"canonical_a"`
						CanonicalB string `json:"canonical_b"`
					}
					if _, err := fetchJSON("GET", ts.URL+"/same?a=a&b=b", "", &same); err != nil {
						report("%v", err)
					} else if merged := same.Seq%2 == 0; same.Same != (same.CanonicalA == same.CanonicalB) || same.Same != merged {
						report("/same at seq %d: same=%v, canonicals %q and %q", same.Seq, same.Same, same.CanonicalA, same.CanonicalB)
					} else {
						report("")
					}
					continue
				}
				var ent struct {
					Canonical string `json:"canonical"`
					Seq       uint64 `json:"seq"`
				}
				if _, err := fetchJSON("GET", ts.URL+"/entity?id=b", "", &ent); err != nil {
					report("%v", err)
				} else if ent.Seq%2 == 1 && ent.Canonical != "b" {
					report("/entity?id=b at seq %d (split): canonical %q", ent.Seq, ent.Canonical)
				} else {
					report("")
				}
			}
		}(r)
	}
	enough := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return reads >= minReads
	}
	flips := 0
	for ; flips < maxFlips && (flips < 2 || !enough()); flips++ {
		d := graphkeys.NewDelta().AddValueTriple("b", "email", "x")
		if flips%2 == 1 {
			d = graphkeys.NewDelta().RemoveValueTriple("b", "email", "x")
		}
		if _, _, err := m.Apply(d); err != nil {
			t.Fatalf("flip %d: %v", flips, err)
		}
	}
	close(done)
	wg.Wait()
	if m.Seq() != uint64(1+flips) {
		t.Fatalf("after %d flips at seq %d, want %d", flips, m.Seq(), 1+flips)
	}
	if torn > 0 {
		t.Fatalf("%d of %d point reads torn across a delta, e.g. %s", torn, reads, sample)
	}
	t.Logf("%d point reads across %d flips, none torn", reads, flips)
}

// TestServeReadyz: /readyz answers 200 while the server serves and 503
// with a reason once Close has begun draining, while /healthz stays 200.
func TestServeReadyz(t *testing.T) {
	s, _, ts := newTestServer(t, t.TempDir())
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz while serving: status %d, want 200", code)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var reason struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &reason); code != http.StatusServiceUnavailable || !strings.Contains(reason.Error, "draining") {
		t.Fatalf("/readyz after Close: status %d %+v, want 503 with the reason", code, reason)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after Close: status %d, want 200", code)
	}
}

// paddedApply is an /apply body of exactly n bytes: one delta adding
// the person id, preceded by whitespace the decoder must read through.
func paddedApply(t *testing.T, id string, n int) string {
	t.Helper()
	body := fmt.Sprintf(`{"deltas":[{"ops":[{"op":"add_entity","id":"%s","type":"person"}]}]}`, id)
	if len(body) > n {
		t.Fatalf("a %d-byte body cannot be padded to %d", len(body), n)
	}
	return strings.Repeat(" ", n-len(body)) + body
}

// TestServeApplyBodyLimit: a body one byte over maxApplyBody is refused
// with 413 and applies nothing, reads keep answering while it streams
// in, and a body of exactly the limit is applied.
func TestServeApplyBodyLimit(t *testing.T) {
	_, m, ts := newTestServer(t, t.TempDir())
	seqBefore := m.Seq()

	over := paddedApply(t, "too_big", maxApplyBody+1)
	pr, pw := io.Pipe()
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/apply", "application/json", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		resp.Body.Close()
		done <- result{code: resp.StatusCode}
	}()
	half := len(over) / 2
	if _, err := io.WriteString(pw, over[:half]); err != nil {
		t.Fatal(err)
	}
	var same sameResp
	if code := getJSON(t, ts.URL+"/same?a=x&b=y", &same); code != http.StatusOK {
		t.Fatalf("/same while an oversized body streams in: status %d, want 200", code)
	}
	go func() {
		_, _ = io.WriteString(pw, over[half:])
		pw.Close()
	}()
	if r := <-done; r.err != nil || r.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized apply: status %d err %v, want 413", r.code, r.err)
	}
	var seq struct {
		Seq uint64 `json:"seq"`
	}
	if code := getJSON(t, ts.URL+"/seq", &seq); code != http.StatusOK || seq.Seq != seqBefore {
		t.Fatalf("/seq after a refused body: status %d seq %d, want 200 and %d", code, seq.Seq, seqBefore)
	}
	if _, ok := m.Canonical("too_big"); ok {
		t.Fatal("a refused body's delta was applied")
	}

	if code, resp := postApply(t, ts.URL, paddedApply(t, "at_limit", maxApplyBody)); code != http.StatusOK {
		t.Fatalf("apply at the limit: status %d (%+v), want 200", code, resp)
	}
	if _, ok := m.Canonical("at_limit"); !ok {
		t.Fatal("a body at the limit was acknowledged but not applied")
	}
}

// TestServeApplyHostileBodies: a body nested deeper than encoding/json's
// 10 000 levels answers 400, and one whose deltas hold maxApplyOps+1 ops
// in total (≈ 8.7 MB, under maxApplyBody) answers 413. Neither moves
// /seq or the graph, and a good delta right after answers 200.
func TestServeApplyHostileBodies(t *testing.T) {
	_, m, ts := newTestServer(t, t.TempDir())
	if code, resp := postApply(t, ts.URL, `{"deltas":[`+personOps("x", "y", "xy@e")+`]}`); code != http.StatusOK {
		t.Fatalf("seed apply: status %d (%+v)", code, resp)
	}
	op := `{"op":"remove_entity","id":"x"}`
	half := (maxApplyOps + 1) / 2
	ops := func(n int) string { return strings.TrimSuffix(strings.Repeat(op+",", n), ",") }
	tooMany := `{"deltas":[{"ops":[` + ops(half) + `]},{"ops":[` + ops(maxApplyOps+1-half) + `]}]}`
	if len(tooMany) > maxApplyBody {
		t.Fatalf("the op-cap body is %d bytes, over the body cap", len(tooMany))
	}
	for _, c := range []struct {
		name, body string
		code       int
		reason     string
	}{
		{"nested", strings.Repeat("[", 10_001) + strings.Repeat("]", 10_001), http.StatusBadRequest, "max depth"},
		{"ops", tooMany, http.StatusRequestEntityTooLarge, fmt.Sprintf("%d ops", maxApplyOps+1)},
	} {
		var before bytes.Buffer
		if err := m.Graph().Write(&before); err != nil {
			t.Fatal(err)
		}
		seqBefore := m.Seq()
		code, resp := postApply(t, ts.URL, c.body)
		if code != c.code || !strings.Contains(resp.Error, c.reason) {
			t.Fatalf("%s: status %d error %q, want %d naming %q", c.name, code, resp.Error, c.code, c.reason)
		}
		var seq struct {
			Seq uint64 `json:"seq"`
		}
		if code := getJSON(t, ts.URL+"/seq", &seq); code != http.StatusOK || seq.Seq != seqBefore {
			t.Fatalf("%s: /seq after the refused body: status %d seq %d, want 200 and %d", c.name, code, seq.Seq, seqBefore)
		}
		var after bytes.Buffer
		if err := m.Graph().Write(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s: the refused body changed the graph", c.name)
		}
		good := fmt.Sprintf(`{"deltas":[{"ops":[{"op":"add_entity","id":"after_%s","type":"person"}]}]}`, c.name)
		if code, resp := postApply(t, ts.URL, good); code != http.StatusOK || resp.Seq != seqBefore+1 {
			t.Fatalf("%s: good delta after: status %d (%+v), want 200 at seq %d", c.name, code, resp, seqBefore+1)
		}
	}
}

// TestServeDebugState: /debug/state follows the WAL through a seed, an
// /apply and a Snapshot — the log bytes grow by the record and return
// to 0, the snapshot bytes are the file's size — and shows the last
// rejected delta and the SSE subscribers. An in-memory server has no
// WAL part.
func TestServeDebugState(t *testing.T) {
	dir := t.TempDir()
	g := graphkeys.NewGraph()
	if err := g.AddEntity("s_a", "person"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddValueTriple("s_a", "email", "s@x.org"); err != nil {
		t.Fatal(err)
	}
	m, err := graphkeys.SeedMatcher(dir, g, testKeySet(t), graphkeys.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Options{EventRing: 64})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	size := func(name string) int64 {
		t.Helper()
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	state := func() debugState {
		t.Helper()
		var st debugState
		if code := getJSON(t, ts.URL+"/debug/state", &st); code != http.StatusOK || st.WAL == nil {
			t.Fatalf("/debug/state: status %d, %+v", code, st)
		}
		return st
	}

	st := state()
	if st.Seq != 1 || st.WAL.SnapshotSeq != 1 || st.WAL.SnapshotBytes != size("snapshot") || st.WAL.LogBytes != 0 ||
		st.WAL.SnapshotAgeS == nil || *st.WAL.SnapshotAgeS < 0 || st.LastFailedApply != nil {
		t.Fatalf("after the seed: %+v %+v", st, *st.WAL)
	}
	if code, resp := postApply(t, ts.URL, addPersonDelta("s_b", "s_c", "s@x.org")); code != http.StatusOK {
		t.Fatalf("apply: status %d (%+v)", code, resp)
	}
	if st = state(); st.Seq != 2 || st.WAL.LogBytes <= 0 || st.WAL.LogBytes != size("wal.log")-8 || st.WAL.SnapshotSeq != 1 {
		t.Fatalf("after one /apply: %+v %+v, wal.log of %d bytes", st, *st.WAL, size("wal.log"))
	}
	poison := `{"deltas":[{"ops":[{"op":"add_edge","s":"ghost","p":"knows","o":"s_a"}]}]}`
	if code, resp := postApply(t, ts.URL, poison); code != http.StatusUnprocessableEntity {
		t.Fatalf("poison: status %d (%+v)", code, resp)
	}
	events, stop := subscribeSSE(t, ts.URL+"/subscribe")
	defer stop()
	st = state()
	if f := st.LastFailedApply; f == nil || f.Seq != 2 || len(f.Ops) != 1 || f.Ops[0].S != "ghost" || !strings.Contains(f.Error, "ghost") {
		t.Fatalf("last failed apply %+v, want the poison at seq 2", f)
	}
	if st.Subscribers != 1 || st.FullestBuffer != 0 || st.BufferCapacity != 64 {
		t.Fatalf("subscribers %d, fullest buffer %d of %d; want 1, 0 of 64", st.Subscribers, st.FullestBuffer, st.BufferCapacity)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st = state(); st.WAL.LogBytes != 0 || st.WAL.SnapshotSeq != 2 || st.WAL.SnapshotBytes != size("snapshot") {
		t.Fatalf("after Snapshot: %+v, snapshot of %d bytes", *st.WAL, size("snapshot"))
	}
	stop()
	for range events {
	}

	_, _, mem := newTestServer(t, "")
	var st2 map[string]any
	if code := getJSON(t, mem.URL+"/debug/state", &st2); code != http.StatusOK || st2["wal"] != nil || st2["seq"] != float64(0) {
		t.Fatalf("in-memory /debug/state: status %d, %v", code, st2)
	}
}
