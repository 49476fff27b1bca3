// Package serve is the HTTP serving surface over a graphkeys.Matcher:
// point reads (same/canonical/attribute lookups), provenance
// explanations, batched mutation ingestion through the async Writer
// with backpressure, and SSE subscription streams of merge/split
// events. The layering follows the substrate/query split the ROADMAP
// names as the exemplar: this package holds no matching logic and no
// state beyond the event replay ring — it translates HTTP to Matcher
// calls and Matcher events to SSE frames.
//
// Consistency: every read endpoint takes the matcher's read lock, so
// a response always reflects a whole-delta boundary — never a
// half-applied batch. Writes are asynchronous (202 Accepted means
// enqueued, not applied); ?wait=1 flushes before responding. SSE
// events carry the post-apply sequence number, so a client that
// replays events from its last seen seq converges to the same pair
// set a fresh full read would return.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"graphkeys"
	"graphkeys/internal/obs"
)

var errClosed = errors.New("serve: server is closed")

// Options configures a Server.
type Options struct {
	// EventRing is the SSE replay ring's capacity in events (and each
	// subscriber's buffer). Zero means DefaultEventRing.
	EventRing int
}

// DefaultEventRing is the default SSE replay-ring capacity.
const DefaultEventRing = 1024

// Server is the HTTP front of one Matcher. Create it with New, mount
// it (it implements http.Handler), and Close it to shut down: drain
// the writer, snapshot (durable matchers), and close the matcher.
type Server struct {
	m   *graphkeys.Matcher
	w   *graphkeys.Writer
	hub *hub
	mux *http.ServeMux

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
}

// New builds a Server over the matcher. The server installs the
// matcher's OnApply hook (do not install another) and starts a Writer;
// the caller hands the matcher over and interacts through HTTP from
// then on, until Close.
func New(m *graphkeys.Matcher, opts Options) *Server {
	ring := opts.EventRing
	if ring <= 0 {
		ring = DefaultEventRing
	}
	// The instruments are built as locals and closed over below: the
	// registry guarantees them non-nil, and locals (rather than field
	// reads inside closures) keep the obshandle nil-safety contract
	// visible to the linter.
	reg := m.Registry()
	obEvents := reg.Counter("serve.events", "merge/split events published to subscribers")
	obDropped := reg.Counter("serve.events_dropped_subscribers", "subscribers dropped for falling behind")
	obSame := reg.Histogram("serve.same_ns", "GET /same latency", obs.DurationBuckets())
	obEntity := reg.Histogram("serve.entity_ns", "GET /entity latency", obs.DurationBuckets())
	obEntities := reg.Histogram("serve.entities_ns", "GET /entities latency", obs.DurationBuckets())
	obExplain := reg.Histogram("serve.explain_ns", "GET /explain latency", obs.DurationBuckets())
	obApply := reg.Histogram("serve.apply_ns", "POST /apply latency", obs.DurationBuckets())
	s := &Server{
		m:   m,
		hub: newHub(ring),

		obInflight:    reg.Gauge("serve.inflight", "HTTP requests currently being served"),
		obSubscribers: reg.Gauge("serve.subscribers", "live SSE subscribers"),
		obEvents:      obEvents,
		obDropped:     obDropped,
		obSame:        obSame,
		obEntity:      obEntity,
		obEntities:    obEntities,
		obExplain:     obExplain,
		obApply:       obApply,
	}
	// The hook runs under the matcher's write lock; publish only moves
	// the event into subscriber buffers (never blocks), keeping the
	// write path's lock hold bounded.
	// The subscriber gauge is owned by the SSE handlers (each Inc/Dec
	// exactly once around its stream, including when publish drops it);
	// the hook only counts.
	hub := s.hub
	m.SetOnApply(func(ev graphkeys.ApplyEvent) {
		obEvents.Inc()
		if dropped := hub.publish(ev); dropped > 0 {
			obDropped.Add(int64(dropped))
		}
	})
	s.w = m.NewWriter()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /same", s.instrumented(obSame, s.handleSame))
	s.mux.HandleFunc("GET /entity", s.instrumented(obEntity, s.handleEntity))
	s.mux.HandleFunc("GET /entities", s.instrumented(obEntities, s.handleEntities))
	s.mux.HandleFunc("GET /explain", s.instrumented(obExplain, s.handleExplain))
	s.mux.HandleFunc("POST /apply", s.instrumented(obApply, s.handleApply))
	s.mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /seq", s.handleSeq)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
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

// Close shuts the serving layer down in dependency order: subscribers
// are dropped (their streams end), the writer drains (every accepted
// delta applies), a durable matcher snapshots (compacting the WAL so
// the next open replays nothing), and the matcher's log closes. The
// matcher stays readable afterwards; call Close after (or while) the
// http.Server stops accepting requests.
func (s *Server) Close() error {
	s.hub.close()
	err := s.w.Close()
	if serr := s.m.Snapshot(); serr != nil && !errors.Is(serr, graphkeys.ErrNotDurable) && err == nil {
		err = serr
	}
	if cerr := s.m.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// instrumented wraps a handler with the in-flight gauge and a latency
// histogram.
func (s *Server) instrumented(h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	inflight := s.obInflight
	return func(w http.ResponseWriter, r *http.Request) {
		inflight.Inc()
		t0 := h.Start()
		fn(w, r)
		h.ObserveSince(t0)
		inflight.Dec()
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

// handleSame: GET /same?a=&b= — whether a and b are currently
// identified, with both canonical representatives and the sequence
// number the answer reflects.
func (s *Server) handleSame(w http.ResponseWriter, r *http.Request) {
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		httpError(w, http.StatusBadRequest, "same requires a= and b=")
		return
	}
	ca, okA := s.m.Canonical(graphkeys.EntityID(a))
	cb, okB := s.m.Canonical(graphkeys.EntityID(b))
	resp := map[string]any{
		"a":    a,
		"b":    b,
		"same": s.m.Same(graphkeys.EntityID(a), graphkeys.EntityID(b)),
		"seq":  s.m.Seq(),
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
	c, ok := s.m.Canonical(graphkeys.EntityID(id))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown entity %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canonical": c, "seq": s.m.Seq()})
}

// handleEntities: GET /entities?p=&v= — the entities carrying the
// attribute (p, v), off the inverted value index.
func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	p, v := r.URL.Query().Get("p"), r.URL.Query().Get("v")
	if p == "" {
		httpError(w, http.StatusBadRequest, "entities requires p= and v=")
		return
	}
	ents := s.m.EntitiesWith(p, v)
	if ents == nil {
		ents = []graphkeys.EntityID{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"p": p, "v": v, "entities": ents, "seq": s.m.Seq()})
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
// individually atomic (the ApplyBatch partial semantics apply).
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

// handleApply: POST /apply — enqueue the request's deltas on the
// writer. 202 means accepted (asynchronous; ?wait=1 flushes first),
// 429 means the queue is full (shed and retry), 503 means the write
// path is down (writer closed or sticky error).
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	var req ApplyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad apply body: %v", err)
		return
	}
	if len(req.Deltas) == 0 {
		httpError(w, http.StatusBadRequest, "apply requires at least one delta")
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
	for i, d := range ds {
		if err := s.w.TryApply(d); err != nil {
			status := http.StatusServiceUnavailable
			if errors.Is(err, graphkeys.ErrWriterBusy) {
				status = http.StatusTooManyRequests
			}
			// Deltas before i are already enqueued and will apply;
			// report the split so the client can retry the remainder.
			writeJSON(w, status, map[string]any{
				"error":    err.Error(),
				"enqueued": i,
				"rejected": len(ds) - i,
			})
			return
		}
	}
	if r.URL.Query().Get("wait") == "1" {
		if err := s.w.Flush(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":    err.Error(),
				"enqueued": len(ds),
			})
			return
		}
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"enqueued": len(ds), "seq": s.m.Seq()})
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
// buffering; the ring makes the reconnect cheap).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
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
	subscribers := s.obSubscribers
	subscribers.Inc()
	defer func() {
		// unsubscribe is a no-op if publish or close already dropped us;
		// the gauge must decrement exactly once either way.
		s.hub.unsubscribe(sub)
		subscribers.Dec()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if reset {
		fmt.Fprintf(w, "event: reset\ndata: {\"seq\":%d}\n\n", s.m.Seq())
	}
	write := func(ev graphkeys.ApplyEvent) bool {
		data, err := json.Marshal(event{Seq: ev.Seq, Added: ev.Added, Removed: ev.Removed})
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: change\ndata: %s\n\n", ev.Seq, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	fl.Flush()
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
