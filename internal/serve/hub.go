package serve

import (
	"sync"

	"graphkeys"
)

// hub fans the matcher's ApplyEvents out to SSE subscribers and keeps
// a bounded replay ring so a reconnecting client can resume from the
// sequence number it last saw without a full state transfer.
//
// Delivery policy: every subscriber has a buffered channel; a
// subscriber that falls ringSize events behind (full channel) is
// dropped — its channel is closed and the handler ends the stream, so
// one slow reader can never block the matcher's write path or grow
// memory without bound. The client reconnects with its last event ID
// and either replays from the ring or receives a reset.
type hub struct {
	mu   sync.Mutex
	ring []graphkeys.ApplyEvent // oldest first, len <= cap
	// evicted is the highest Seq that has been pushed out of the ring
	// (0 when nothing has been evicted): a resume from seq < evicted
	// cannot be satisfied by replay and must reset.
	evicted uint64
	subs    map[*subscriber]struct{}
	closed  bool

	ringSize int
	bufSize  int
}

type subscriber struct {
	ch chan graphkeys.ApplyEvent
}

func newHub(ringSize int) *hub {
	if ringSize < 1 {
		ringSize = 1
	}
	return &hub{
		subs:     make(map[*subscriber]struct{}),
		ringSize: ringSize,
		bufSize:  ringSize,
	}
}

// publish appends the event to the replay ring and offers it to every
// subscriber, dropping subscribers whose buffers are full. Called from
// the matcher's onApply hook (under the matcher's write lock), so it
// must never block.
func (h *hub) publish(ev graphkeys.ApplyEvent) (dropped int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	if len(h.ring) >= h.ringSize {
		h.evicted = h.ring[0].Seq
		h.ring = append(h.ring[:0], h.ring[1:]...)
	}
	h.ring = append(h.ring, ev)
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			close(s.ch)
			delete(h.subs, s)
			dropped++
		}
	}
	return dropped
}

// subscribe registers a new subscriber and returns its channel, the
// events to replay (those with Seq > from, oldest first), and whether
// the resume point was too old to replay (reset: events after from
// were already evicted). The replay slice and live channel do not
// overlap or reorder: both are cut under the same lock, so replayed
// events all precede the first channel delivery.
func (h *hub) subscribe(from uint64) (s *subscriber, replay []graphkeys.ApplyEvent, reset bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, false, errClosed
	}
	reset = from < h.evicted
	for _, ev := range h.ring {
		if ev.Seq > from {
			replay = append(replay, ev)
		}
	}
	s = &subscriber{ch: make(chan graphkeys.ApplyEvent, h.bufSize)}
	h.subs[s] = struct{}{}
	return s, replay, reset, nil
}

// unsubscribe removes the subscriber (no-op if it was already dropped).
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.ch)
	}
}

// occupancy reports the live subscribers and the most events any of
// them has waiting in its buffer.
func (h *hub) occupancy() (subscribers, fullest int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		fullest = max(fullest, len(s.ch))
	}
	return len(h.subs), fullest
}

// close drops every subscriber (closing their channels ends the SSE
// handlers) and rejects future subscriptions.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}
