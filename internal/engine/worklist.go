package engine

// Worklist is a FIFO queue with membership dedup: an item may be
// re-pushed after it has been popped (a later union can make a pair
// newly checkable) but is never queued twice concurrently. It is the
// dependency worklist the incremental engine's repair pass drains:
// identifications enqueue the candidate pairs that depend on the merged
// classes.
//
// A Worklist is not safe for concurrent use.
type Worklist[T comparable] struct {
	queue []T
	head  int
	inQ   map[T]bool
}

// NewWorklist returns an empty worklist.
func NewWorklist[T comparable]() *Worklist[T] {
	return &Worklist[T]{inQ: make(map[T]bool)}
}

// Push enqueues x unless it is already queued. It reports whether the
// item was actually added.
func (w *Worklist[T]) Push(x T) bool {
	if w.inQ[x] {
		return false
	}
	w.inQ[x] = true
	w.queue = append(w.queue, x)
	return true
}

// Pop dequeues the oldest item. After a Pop the item may be pushed
// again.
func (w *Worklist[T]) Pop() (T, bool) {
	var zero T
	if w.head >= len(w.queue) {
		return zero, false
	}
	x := w.queue[w.head]
	w.head++
	delete(w.inQ, x)
	if w.head == len(w.queue) {
		w.queue = w.queue[:0]
		w.head = 0
	}
	return x, true
}

// Len reports the number of queued items.
func (w *Worklist[T]) Len() int { return len(w.queue) - w.head }
