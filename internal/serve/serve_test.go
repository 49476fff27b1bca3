package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphkeys"
)

// testKeys is one value-anchored key: two persons sharing an email are
// the same entity.
const testKeys = "key P for person {\n    x -email-> e*\n}\n"

func newTestServer(t *testing.T, durable bool) (*Server, *graphkeys.Matcher, *httptest.Server) {
	t.Helper()
	ks, err := graphkeys.ParseKeys(testKeys)
	if err != nil {
		t.Fatal(err)
	}
	var m *graphkeys.Matcher
	if durable {
		m, err = graphkeys.OpenMatcher(t.TempDir(), ks, graphkeys.Options{})
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

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postApply(t *testing.T, base string, wait bool, body string) (int, map[string]any) {
	t.Helper()
	url := base + "/apply"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /apply: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST /apply: decode: %v", err)
	}
	return resp.StatusCode, out
}

// addPersonDelta is the JSON delta merging two persons via a shared
// email.
func addPersonDelta(a, b, email string) string {
	return fmt.Sprintf(`{"deltas":[{"ops":[
		{"op":"add_entity","id":"%s","type":"person"},
		{"op":"add_entity","id":"%s","type":"person"},
		{"op":"add_value","s":"%s","p":"email","v":"%s"},
		{"op":"add_value","s":"%s","p":"email","v":"%s"}
	]}]}`, a, b, a, email, b, email)
}

// TestServeEndpoints drives the point-read surface through HTTP.
func TestServeEndpoints(t *testing.T) {
	_, m, ts := newTestServer(t, false)
	code, resp := postApply(t, ts.URL, true, addPersonDelta("alice", "al", "a@x.org"))
	if code != http.StatusAccepted {
		t.Fatalf("apply: status %d (%v)", code, resp)
	}

	var same struct {
		Same bool   `json:"same"`
		Seq  uint64 `json:"seq"`
	}
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
	if code, _ := postApply(t, ts.URL, false, `{"deltas":[{"ops":[{"op":"bogus"}]}]}`); code != http.StatusBadRequest {
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
	_, m, ts := newTestServer(t, true)

	// Seed a couple of groups so readers have something to hit.
	if code, resp := postApply(t, ts.URL, true, addPersonDelta("seed_a", "seed_b", "seed@x.org")); code != http.StatusAccepted {
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
	// them again by removing one side's email.
	werr := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				a, b := fmt.Sprintf("w%d_%d_a", w, i), fmt.Sprintf("w%d_%d_b", w, i)
				email := fmt.Sprintf("w%d_%d@x.org", w, i)
				if code, resp := postApply(t, ts.URL, false, addPersonDelta(a, b, email)); code != http.StatusAccepted {
					werr <- fmt.Errorf("writer %d merge %d: status %d (%v)", w, i, code, resp)
					return
				}
				if i%2 == 1 {
					// Split the pair again: removing b's email destroys
					// the witness.
					body := fmt.Sprintf(`{"deltas":[{"ops":[{"op":"remove_value","s":"%s","p":"email","v":"%s"}]}]}`, b, email)
					if code, resp := postApply(t, ts.URL, false, body); code != http.StatusAccepted {
						werr <- fmt.Errorf("writer %d split %d: status %d (%v)", w, i, code, resp)
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
	// everything" — /apply?wait=1 flushes the writer first, so the
	// sentinel's event is the last one published.
	if code, resp := postApply(t, ts.URL, true, addPersonDelta("fin_a", "fin_b", "fin@x.org")); code != http.StatusAccepted {
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
	_, m, ts := newTestServer(t, false)

	// Produce more events than the 64-slot ring holds.
	for i := 0; i < 80; i++ {
		a, b := fmt.Sprintf("r%d_a", i), fmt.Sprintf("r%d_b", i)
		if code, resp := postApply(t, ts.URL, true, addPersonDelta(a, b, fmt.Sprintf("r%d@x.org", i))); code != http.StatusAccepted {
			t.Fatalf("apply %d: status %d (%v)", i, code, resp)
		}
	}
	cur := m.Seq()

	// Resume from the current seq: nothing to replay, and the next
	// event arrives live.
	events, stop := subscribeSSE(t, fmt.Sprintf("%s/subscribe?from=%d", ts.URL, cur))
	defer stop()
	if code, resp := postApply(t, ts.URL, true, addPersonDelta("live_a", "live_b", "live@x.org")); code != http.StatusAccepted {
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

// TestServeBackpressureAndClose: /apply on a closed server maps to
// 503; Close drains the writer so accepted deltas are visible
// afterwards; closing twice is safe.
func TestServeClose(t *testing.T) {
	s, m, ts := newTestServer(t, true)
	if code, resp := postApply(t, ts.URL, false, addPersonDelta("c_a", "c_b", "c@x.org")); code != http.StatusAccepted {
		t.Fatalf("apply: status %d (%v)", code, resp)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The accepted delta drained before the WAL closed.
	if !m.Same("c_a", "c_b") {
		t.Fatal("delta accepted before Close was lost")
	}
	// Writes now fail with 503 (writer closed).
	if code, _ := postApply(t, ts.URL, false, addPersonDelta("d_a", "d_b", "d@x.org")); code != http.StatusServiceUnavailable {
		t.Fatalf("apply after close: status %d, want 503", code)
	}
	// Reads still serve.
	var same struct {
		Same bool `json:"same"`
	}
	if code := getJSON(t, ts.URL+"/same?a=c_a&b=c_b", &same); code != 200 || !same.Same {
		t.Fatalf("read after close: status %d same=%v", code, same.Same)
	}
}

// TestServeReadyz: /readyz answers 200 while the server serves and 503
// with a reason once Close has begun draining, while /healthz stays 200.
func TestServeReadyz(t *testing.T) {
	s, _, ts := newTestServer(t, true)
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
// with 413 and enqueues nothing, reads keep answering while it streams
// in, and a body of exactly the limit is accepted.
func TestServeApplyBodyLimit(t *testing.T) {
	_, m, ts := newTestServer(t, true)
	seqBefore := m.Seq()

	over := paddedApply(t, "too_big", maxApplyBody+1)
	pr, pw := io.Pipe()
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/apply?wait=1", "application/json", pr)
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
	var same struct {
		Same bool `json:"same"`
	}
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

	if code, resp := postApply(t, ts.URL, true, paddedApply(t, "at_limit", maxApplyBody)); code != http.StatusAccepted {
		t.Fatalf("apply at the limit: status %d (%v), want 202", code, resp)
	}
	if _, ok := m.Canonical("at_limit"); !ok {
		t.Fatal("a body at the limit was accepted but not applied")
	}
}
