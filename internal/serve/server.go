// Package serve is the HTTP serving surface over a graphkeys.Matcher:
// point reads (same/canonical/attribute lookups), provenance
// explanations, mutation ingestion with one outcome per delta, and SSE
// subscription streams of merge/split events. The layering follows the
// substrate/query split the ROADMAP names as the exemplar: this package
// holds no matching logic and no state beyond the event replay ring and
// the last failed /apply delta (GET /debug/state) — it translates HTTP
// to Matcher calls and Matcher events to SSE frames.
//
// Consistency: a point read (/same, /entity, /entities) answers from
// one delta boundary — never a half-applied batch, never two — and its
// seq names that boundary (see atSeq). POST /apply applies its body's
// deltas in body order as one batch before it answers, so a read sent
// after the answer sees them, and a read never sees part of a body: the
// body is one repair pass and at most one SSE event, at the seq the
// answer names. SSE events carry the post-apply sequence number, so a
// client that replays events from its last seen seq converges to the
// same pair set a fresh full read would return.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"graphkeys"
	"graphkeys/internal/obs"
)

var errClosed = errors.New("serve: the server is closing")

// Options configures a Server.
type Options struct {
	// EventRing is the SSE replay ring's capacity in events (and each
	// subscriber's buffer). Zero means DefaultEventRing.
	EventRing int
}

// DefaultEventRing is the default SSE replay-ring capacity.
const DefaultEventRing = 1024

// sseWriteTimeout bounds each write of an SSE stream; a subscriber that
// stops reading for this long is dropped.
const sseWriteTimeout = 10 * time.Second

// Server is the HTTP front of one Matcher. Create it with New, mount
// it (it implements http.Handler), and Close it to shut down: snapshot
// (durable matchers) and close the matcher.
type Server struct {
	m   *graphkeys.Matcher
	hub *hub
	mux *http.ServeMux
	// closing is set when Close begins; /readyz and /apply answer 503
	// from then on.
	closing atomic.Bool

	// serve.* instruments on the matcher's registry: one scrape covers
	// substrate and serving layer alike.
	obInflight    *obs.Gauge
	obSubscribers *obs.Gauge
	obEvents      *obs.Counter
	obDropped     *obs.Counter
	obSame        *obs.Histogram
	obEntity      *obs.Histogram
	obEntities    *obs.Histogram
	obExplain     *obs.Histogram
	obApply       *obs.Histogram
	obRejected    *obs.Counter

	// lastFailed is the last /apply delta that failed or was rejected,
	// for /debug/state; nil until one does.
	lastFailed atomic.Pointer[failedDelta]
}

// failedDelta is an /apply delta that failed or was rejected: its ops
// as sent, its error, and the matcher's seq when it was tried.
type failedDelta struct {
	Ops   []Op   `json:"ops"`
	Error string `json:"error"`
	Seq   uint64 `json:"seq"`
}

// New builds a Server over the matcher. The server installs the
// matcher's OnApply hook (do not install another); the caller hands the
// matcher over and interacts through HTTP from then on, until Close.
func New(m *graphkeys.Matcher, opts Options) *Server {
	ring := opts.EventRing
	if ring <= 0 {
		ring = DefaultEventRing
	}
	reg := m.Registry()
	s := &Server{
		m:   m,
		hub: newHub(ring),

		// Registration order is /metrics order.
		obEvents:      reg.Counter("serve.events", "merge/split events published to subscribers"),
		obDropped:     reg.Counter("serve.events_dropped_subscribers", "subscribers dropped for falling behind"),
		obSame:        reg.Histogram("serve.same_ns", "GET /same latency", obs.DurationBuckets()),
		obEntity:      reg.Histogram("serve.entity_ns", "GET /entity latency", obs.DurationBuckets()),
		obEntities:    reg.Histogram("serve.entities_ns", "GET /entities latency", obs.DurationBuckets()),
		obExplain:     reg.Histogram("serve.explain_ns", "GET /explain latency", obs.DurationBuckets()),
		obApply:       reg.Histogram("serve.apply_ns", "POST /apply latency", obs.DurationBuckets()),
		obInflight:    reg.Gauge("serve.inflight", "HTTP requests currently being served"),
		obSubscribers: reg.Gauge("serve.subscribers", "live SSE subscribers"),
		obRejected:    reg.Counter("serve.apply_rejected", "/apply deltas rejected by validation"),
	}
	// The hook runs under the matcher's write lock; publish only moves
	// the event into subscriber buffers (never blocks), keeping the
	// write path's lock hold bounded.
	// The subscriber gauge is owned by the SSE handlers (each Inc/Dec
	// exactly once around its stream, including when publish drops it);
	// the hook only counts.
	m.SetOnApply(func(ev graphkeys.ApplyEvent) {
		s.obEvents.Inc()
		if dropped := s.hub.publish(ev); dropped > 0 {
			s.obDropped.Add(int64(dropped))
		}
	})

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /same", s.instrumented(s.obSame, s.handleSame))
	s.mux.HandleFunc("GET /entity", s.instrumented(s.obEntity, s.handleEntity))
	s.mux.HandleFunc("GET /entities", s.instrumented(s.obEntities, s.handleEntities))
	s.mux.HandleFunc("GET /explain", s.instrumented(s.obExplain, s.handleExplain))
	s.mux.HandleFunc("POST /apply", s.instrumented(s.obApply, s.handleApply))
	s.mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /seq", s.handleSeq)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /debug/state", s.handleDebugState)
	// The matcher's own observability surface, on the same mux: one
	// port serves queries and their metrics.
	s.mux.Handle("/metrics", m.MetricsHandler())
	s.mux.Handle("/vars", m.MetricsHandler())
	s.mux.Handle("/events", m.MetricsHandler())
	return s
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close shuts the serving layer down in dependency order: /apply stops
// taking deltas, subscribers are dropped (their streams end), a durable
// matcher snapshots (compacting the WAL so the next open replays
// nothing), and the matcher's log closes; an /apply already under way
// lands in the snapshot or the log, or fails unacknowledged. The matcher
// stays readable afterwards; call Close after (or while) the http.Server
// stops accepting requests.
func (s *Server) Close() error {
	s.closing.Store(true)
	s.hub.close()
	err := s.m.Snapshot()
	if errors.Is(err, graphkeys.ErrNotDurable) {
		err = nil
	}
	if cerr := s.m.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// instrumented wraps a handler with the in-flight gauge and a latency
// histogram.
func (s *Server) instrumented(h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.obInflight.Inc()
		t0 := h.Start()
		fn(w, r)
		h.ObserveSince(t0)
		s.obInflight.Dec()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// atSeq runs read, which makes several matcher calls, between two
// reads of the matcher's seq, until both reads agree: no delta applied
// in between, so everything read reflects the state at the returned
// seq. A delta landing mid-read costs one more try.
func (s *Server) atSeq(read func()) uint64 {
	for {
		seq := s.m.Seq()
		read()
		if s.m.Seq() == seq {
			return seq
		}
	}
}

// handleSame: GET /same?a=&b= — whether a and b are currently
// identified, with both canonical representatives and the sequence
// number the answer reflects. Two known entities are identified exactly
// when their canonicals coincide.
func (s *Server) handleSame(w http.ResponseWriter, r *http.Request) {
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		httpError(w, http.StatusBadRequest, "same requires a= and b=")
		return
	}
	var ca, cb graphkeys.EntityID
	var okA, okB bool
	seq := s.atSeq(func() {
		ca, okA = s.m.Canonical(graphkeys.EntityID(a))
		cb, okB = s.m.Canonical(graphkeys.EntityID(b))
	})
	resp := map[string]any{
		"a":    a,
		"b":    b,
		"same": okA && okB && ca == cb,
		"seq":  seq,
	}
	if okA {
		resp["canonical_a"] = ca
	}
	if okB {
		resp["canonical_b"] = cb
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEntity: GET /entity?id= — the canonical representative of the
// entity's equivalence class.
func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, "entity requires id=")
		return
	}
	var c graphkeys.EntityID
	var ok bool
	seq := s.atSeq(func() { c, ok = s.m.Canonical(graphkeys.EntityID(id)) })
	if !ok {
		httpError(w, http.StatusNotFound, "unknown entity %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canonical": c, "seq": seq})
}

// handleEntities: GET /entities?p=&v= — the entities carrying the
// attribute (p, v), off the inverted value index.
func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	p, v := r.URL.Query().Get("p"), r.URL.Query().Get("v")
	if p == "" {
		httpError(w, http.StatusBadRequest, "entities requires p= and v=")
		return
	}
	var ents []graphkeys.EntityID
	seq := s.atSeq(func() { ents = s.m.EntitiesWith(p, v) })
	if ents == nil {
		ents = []graphkeys.EntityID{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"p": p, "v": v, "entities": ents, "seq": seq})
}

// handleExplain: GET /explain?a=&b= — the witness chain identifying
// the pair (404 when not identified or unknown).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		httpError(w, http.StatusBadRequest, "explain requires a= and b=")
		return
	}
	ex, err := s.m.Explain(graphkeys.EntityID(a), graphkeys.EntityID(b))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// Op is one mutation of an /apply delta, a tagged union on Op:
//
//	{"op":"add_entity", "id":"e1", "type":"person"}
//	{"op":"add_edge",   "s":"e1", "p":"knows", "o":"e2"}
//	{"op":"add_value",  "s":"e1", "p":"email", "v":"a@b.c"}
//	{"op":"remove_edge", "s":"e1", "p":"knows", "o":"e2"}
//	{"op":"remove_value","s":"e1", "p":"email", "v":"a@b.c"}
//	{"op":"remove_entity","id":"e1"}
type Op struct {
	Op   string `json:"op"`
	ID   string `json:"id,omitempty"`
	Type string `json:"type,omitempty"`
	S    string `json:"s,omitempty"`
	P    string `json:"p,omitempty"`
	O    string `json:"o,omitempty"`
	V    string `json:"v,omitempty"`
}

// ApplyRequest is the POST /apply body: a batch of deltas, each delta
// individually atomic (Matcher.ApplyBatch's semantics apply: a delta
// failing validation is skipped alone, a log failure fails them all).
type ApplyRequest struct {
	Deltas []struct {
		Ops []Op `json:"ops"`
	} `json:"deltas"`
}

// buildDelta translates one JSON delta into a graphkeys.Delta.
func buildDelta(ops []Op) (*graphkeys.Delta, error) {
	d := graphkeys.NewDelta()
	for i, op := range ops {
		switch op.Op {
		case "add_entity":
			if op.ID == "" || op.Type == "" {
				return nil, fmt.Errorf("op %d: add_entity requires id and type", i)
			}
			d.AddEntity(graphkeys.EntityID(op.ID), op.Type)
		case "add_edge":
			if op.S == "" || op.P == "" || op.O == "" {
				return nil, fmt.Errorf("op %d: add_edge requires s, p and o", i)
			}
			d.AddEntityTriple(graphkeys.EntityID(op.S), op.P, graphkeys.EntityID(op.O))
		case "add_value":
			if op.S == "" || op.P == "" {
				return nil, fmt.Errorf("op %d: add_value requires s, p and v", i)
			}
			d.AddValueTriple(graphkeys.EntityID(op.S), op.P, op.V)
		case "remove_edge":
			if op.S == "" || op.P == "" || op.O == "" {
				return nil, fmt.Errorf("op %d: remove_edge requires s, p and o", i)
			}
			d.RemoveEntityTriple(graphkeys.EntityID(op.S), op.P, graphkeys.EntityID(op.O))
		case "remove_value":
			if op.S == "" || op.P == "" {
				return nil, fmt.Errorf("op %d: remove_value requires s, p and v", i)
			}
			d.RemoveValueTriple(graphkeys.EntityID(op.S), op.P, op.V)
		case "remove_entity":
			if op.ID == "" {
				return nil, fmt.Errorf("op %d: remove_entity requires id", i)
			}
			d.RemoveEntity(graphkeys.EntityID(op.ID))
		default:
			return nil, fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
	}
	return d, nil
}

// maxApplyBody caps a POST /apply body in bytes, so one client cannot
// make the server buffer without bound. The largest legitimate body is
// a whole graph as one bulk delta: 3.7 MB of JSON for the 55 339 ops of
// the largest repository benchmark input, which this limit holds 4.5
// times over.
const maxApplyBody = 16 << 20

// maxApplyOps caps the ops of one POST /apply body, summed over its
// deltas. The body cap bounds bytes; this bounds the work one request
// does while it holds the matcher's write lock. It holds the 55 339 ops
// of the largest legitimate bulk delta 4.7 times over, the headroom
// maxApplyBody keeps.
const maxApplyOps = 1 << 18

// handleApply: POST /apply — apply the body's deltas in body order, one
// Matcher.ApplyBatch for the body, and answer with each delta's outcome:
// {"seq":N,"deltas":[{"seq":n} | {"error":"…"}, …]}. N is the matcher's
// seq after the body's repair pass; n is the seq the outcome names, so a
// read at seq ≥ n sees that delta (on an in-memory matcher every delta of
// the body shares N). 200: every delta applied (or coalesced to a
// no-op). 422: a delta failed validation and was skipped alone. 503: the
// log failed or the server is closing; no delta of the body applied, and
// the answer lists the first, carrying the error. 400 and 413 (over
// maxApplyBody bytes or maxApplyOps ops): nothing applied. A ?wait=
// parameter is accepted and ignored, since every answer waits.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	var req ApplyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxApplyBody)).Decode(&req); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "apply body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad apply body: %v", err)
		return
	}
	if len(req.Deltas) == 0 {
		httpError(w, http.StatusBadRequest, "apply requires at least one delta")
		return
	}
	ops := 0
	for _, jd := range req.Deltas {
		ops += len(jd.Ops)
	}
	if ops > maxApplyOps {
		httpError(w, http.StatusRequestEntityTooLarge, "apply body has %d ops, over the limit of %d", ops, maxApplyOps)
		return
	}
	ds := make([]*graphkeys.Delta, 0, len(req.Deltas))
	for i, jd := range req.Deltas {
		d, err := buildDelta(jd.Ops)
		if err != nil {
			httpError(w, http.StatusBadRequest, "delta %d: %v", i, err)
			return
		}
		ds = append(ds, d)
	}
	var ev graphkeys.ApplyEvent
	var outs []graphkeys.Outcome
	if s.closing.Load() {
		ev.Seq = s.m.Seq()
		outs = []graphkeys.Outcome{{Seq: ev.Seq, Err: errClosed}}
	} else {
		ev, outs, _ = s.m.ApplyBatch(ds)
	}
	status := http.StatusOK
	outcomes := make([]map[string]any, 0, len(outs))
	for i, o := range outs {
		if o.Err == nil {
			outcomes = append(outcomes, map[string]any{"seq": o.Seq})
			continue
		}
		outcomes = append(outcomes, map[string]any{"error": o.Err.Error()})
		s.lastFailed.Store(&failedDelta{Ops: req.Deltas[i].Ops, Error: o.Err.Error(), Seq: o.Seq})
		if !errors.Is(o.Err, graphkeys.ErrInvalidDelta) {
			status = http.StatusServiceUnavailable
			break
		}
		s.obRejected.Inc()
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, map[string]any{"seq": ev.Seq, "deltas": outcomes})
}

// handleReadyz: GET /readyz — 200 while the server takes writes, 503
// with the reason once Close has begun draining, so a load balancer
// stops routing here before the listener goes. /healthz stays 200 for as
// long as the process answers at all.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		httpError(w, http.StatusServiceUnavailable, "not ready: draining, the server is closing")
		return
	}
	w.WriteHeader(http.StatusOK)
}

// debugState is the GET /debug/state answer.
type debugState struct {
	Seq uint64 `json:"seq"`
	// WAL is the durable directory's state, from the matcher's wal.*
	// gauges; nil for an in-memory matcher.
	WAL *walState `json:"wal"`
	// LastFailedApply is the last /apply delta that failed or was
	// rejected, nil until one does.
	LastFailedApply *failedDelta `json:"last_failed_apply"`
	Subscribers     int          `json:"subscribers"`
	// FullestBuffer is the most events any subscriber has waiting, of
	// BufferCapacity; a subscriber whose buffer fills is dropped.
	FullestBuffer  int `json:"fullest_buffer"`
	BufferCapacity int `json:"buffer_capacity"`
}

// walState is the WAL part of debugState: the seq the snapshot covers,
// its size, its age in seconds (nil without a snapshot) and the log
// bytes appended since it.
type walState struct {
	SnapshotSeq   int64    `json:"snapshot_seq"`
	SnapshotBytes int64    `json:"snapshot_bytes"`
	SnapshotAgeS  *float64 `json:"snapshot_age_s"`
	LogBytes      int64    `json:"log_bytes"`
}

// handleDebugState: GET /debug/state — the seq, the WAL's snapshot and
// the log written since it, the last /apply delta that failed or was
// rejected, and the SSE subscribers with the fullest buffer.
func (s *Server) handleDebugState(w http.ResponseWriter, r *http.Request) {
	st := debugState{Seq: s.m.Seq(), LastFailedApply: s.lastFailed.Load(), BufferCapacity: s.hub.bufSize}
	gauges := s.m.Metrics().Gauges
	if seq, ok := gauges["wal.snapshot_seq"]; ok {
		st.WAL = &walState{SnapshotSeq: seq, SnapshotBytes: gauges["wal.snapshot_bytes"], LogBytes: gauges["wal.log_bytes"]}
		if ms := gauges["wal.snapshot_time_ms"]; ms > 0 {
			age := time.Since(time.UnixMilli(ms)).Seconds()
			st.WAL.SnapshotAgeS = &age
		}
	}
	st.Subscribers, st.FullestBuffer = s.hub.occupancy()
	writeJSON(w, http.StatusOK, st)
}

// handleSeq: GET /seq — the matcher's current sequence number, the
// resume point for a fresh subscriber that first reads full state.
func (s *Server) handleSeq(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"seq": s.m.Seq()})
}

// event is the SSE data payload of one merge/split event.
type event struct {
	Seq     uint64           `json:"seq"`
	Added   []graphkeys.Pair `json:"added,omitempty"`
	Removed []graphkeys.Pair `json:"removed,omitempty"`
}

// handleSubscribe: GET /subscribe — an SSE stream of merge/split
// events. Each frame is
//
//	id: <seq>
//	event: change
//	data: {"seq":N,"added":[{"A":..,"B":..}],"removed":[...]}
//
// Resume with ?from=<seq> or the standard Last-Event-ID header: events
// with Seq > from replay from the ring first. When the resume point
// has already been evicted the stream starts with "event: reset" —
// the client must refetch full state (e.g. /seq plus point reads)
// before trusting the stream again. Subscribers that fall a full ring
// behind are disconnected (drop-and-reconnect beats unbounded
// buffering; the ring makes the reconnect cheap), and so are
// subscribers that stop reading: each write has sseWriteTimeout to
// complete.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if _, ok := w.(http.Flusher); !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var from uint64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad from=%q: %v", q, err)
			return
		}
		from = v
	} else if h := r.Header.Get("Last-Event-ID"); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			from = v
		}
	}
	sub, replay, reset, err := s.hub.subscribe(from)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.obSubscribers.Inc()
	defer func() {
		// unsubscribe is a no-op if publish or close already dropped us;
		// the gauge must decrement exactly once either way.
		s.hub.unsubscribe(sub)
		s.obSubscribers.Dec()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// send writes and flushes one frame under a fresh write deadline, so
	// a subscriber that stops reading ends the stream, not the handler.
	send := func(format string, args ...any) bool {
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) // fails only where unsupported or the conn is gone
		_, err := fmt.Fprintf(w, format, args...)
		return err == nil && rc.Flush() == nil
	}
	write := func(ev graphkeys.ApplyEvent) bool {
		data, err := json.Marshal(event{Seq: ev.Seq, Added: ev.Added, Removed: ev.Removed})
		return err == nil && send("id: %d\nevent: change\ndata: %s\n\n", ev.Seq, data)
	}
	if reset && !send("event: reset\ndata: {\"seq\":%d}\n\n", s.m.Seq()) {
		return
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	if !send("") {
		return // the headers, when nothing else was written
	}
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				return // dropped (slow) or server closing
			}
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
