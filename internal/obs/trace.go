package obs

import (
	"sync"
	"time"
)

// This file is the phase tracer: begin/end spans with a name and an
// optional label, recorded into a fixed-size ring of recent events. It
// exists for the coarse phases of the system — a repair pass's
// invalidation scan, its worklist drain, a snapshot write — not for
// per-operation events; the ring is mutex-guarded on End, which at
// phase granularity is never contended enough to matter.

// Event is one completed span.
type Event struct {
	// Name is the phase name the span was begun with (e.g.
	// "inc.repair.invalidate").
	Name string
	// Label is the optional detail supplied at End (e.g. a component
	// index or a seed count).
	Label string
	// Start is when the span began.
	Start time.Time
	// Dur is how long it ran.
	Dur time.Duration
}

// Tracer records spans. A nil *Tracer no-ops everywhere — Begin on it
// returns a Span whose End does nothing and no clock is read — so
// layers thread an optional tracer without branching.
type Tracer struct {
	mu   sync.Mutex
	ring []Event
	next int
	n    int // events currently held (<= len(ring))
}

// NewTracer returns a tracer keeping the most recent ringSize events
// (clamped to at least 1).
func NewTracer(ringSize int) *Tracer {
	if ringSize < 1 {
		ringSize = 1
	}
	return &Tracer{ring: make([]Event, ringSize)}
}

// Span is an in-progress phase. The zero Span (from a nil tracer) is
// inert.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// Begin starts a span for the named phase.
func (t *Tracer) Begin(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// End completes the span with no label.
func (s Span) End() { s.EndLabel("") }

// EndLabel completes the span, attaching a detail label.
func (s Span) EndLabel(label string) {
	if s.t == nil {
		return
	}
	ev := Event{Name: s.name, Label: label, Start: s.start, Dur: time.Since(s.start)}
	s.t.record(ev)
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Recent returns a copy of the retained events, oldest first. Nil
// tracers return nil.
func (t *Tracer) Recent() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}
