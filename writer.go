package graphkeys

import (
	"fmt"
	"sync"

	"graphkeys/internal/obs"
)

// Writer is the asynchronous front of a Matcher's write path for
// high-rate streams of small deltas: Apply enqueues and returns
// immediately, and a background goroutine drains whatever has queued
// up into one Matcher.ApplyBatch — so under load the deltas coalesce
// into ever-larger batches that pay for one incremental maintenance
// pass instead of one per delta, and under light load each delta
// still applies promptly.
//
// Deltas apply in the order they were enqueued: batches apply in stream
// order and, as with ApplyBatch, each batch applies its deltas in
// order, so a later delta sees every earlier one. Errors are sticky
// and fail-stop: the first per-delta failure is reported by
// every subsequent Apply, Flush and Close, and new deltas are
// rejected from then on. Drain-after-error contract: deltas already
// enqueued when the error struck still drain — they are processed (and
// counted in Stats.Deltas) rather than dropped, the matcher state
// stays coherent (a failed delta is skipped, the rest of its batch
// applies), and Flush/Close return once everything enqueued before
// them has been processed, reporting the sticky error. Failed deltas
// are visible in Stats.Failed and the writer.failed counter. Create a
// fresh Writer to resume the stream.
//
// The queue is bounded (maxPending deltas): a producer that
// sustainably outpaces the batcher blocks in Apply instead of growing
// memory and batch latency without limit.
type Writer struct {
	m *Matcher

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Delta
	busy   bool
	closed bool
	err    error

	// enqueued and done are monotonic delta counters; batches apply in
	// stream order, so done >= mark means every delta enqueued before
	// the mark was taken has been processed (Flush's high-water mark —
	// a sustained producer cannot starve a waiter).
	enqueued int
	done     int
	// batches counts completed batches, for observability and
	// coalescing tests. failed counts deltas whose application failed
	// (they still advance done: done tracks processed, not succeeded).
	batches int
	failed  int

	// Instruments from the matcher's registry (shared across the
	// matcher's Writers): live queue depth, the enqueued/batch
	// counters whose ratio is the coalescing achieved, and the batch
	// size distribution.
	obQueue     *obs.Gauge
	obDeltas    *obs.Counter
	obBatches   *obs.Counter
	obBatchSize *obs.Histogram
	obFailed    *obs.Counter
}

// maxPending bounds the Writer queue: Apply blocks once this many
// deltas are waiting for the batcher.
const maxPending = 1024

// NewWriter starts a Writer over the matcher. Close it when done.
func (m *Matcher) NewWriter() *Writer {
	w := &Writer{
		m:           m,
		obQueue:     m.reg.Gauge("writer.queue_depth", "deltas waiting for the batcher"),
		obDeltas:    m.reg.Counter("writer.deltas", "deltas enqueued"),
		obBatches:   m.reg.Counter("writer.batches", "batches applied (deltas/batches = coalesce ratio)"),
		obBatchSize: m.reg.Histogram("writer.batch_size", "deltas per coalesced batch", obs.SizeBuckets()),
		obFailed:    m.reg.Counter("writer.failed", "deltas whose application failed"),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// Apply enqueues the delta and returns without waiting for it to be
// applied, blocking only when the queue is full (backpressure). It
// fails after Close, or once a previous delta has failed.
func (w *Writer) Apply(d *Delta) error {
	if d == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.queue) >= maxPending && !w.closed && w.err == nil {
		w.cond.Wait()
	}
	if w.closed {
		return fmt.Errorf("graphkeys: Writer is closed")
	}
	if w.err != nil {
		return w.err
	}
	w.queue = append(w.queue, d)
	w.enqueued++
	w.obQueue.Inc()
	w.obDeltas.Inc()
	w.cond.Broadcast()
	return nil
}

// Flush blocks until every delta enqueued before the call has been
// applied and returns the sticky error, if any. Deltas enqueued while
// Flush waits are not waited for.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	mark := w.enqueued
	for w.done < mark {
		w.cond.Wait()
	}
	return w.err
}

// Close drains the queue, stops the background goroutine and returns
// the sticky error. Further Applies fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		w.cond.Broadcast()
	}
	for len(w.queue) > 0 || w.busy {
		w.cond.Wait()
	}
	return w.err
}

// WriterStats is a Writer's progress accounting. Deltas counts every
// delta a batch has processed — applied or failed — so
// Deltas - Failed is the number that actually mutated the matcher;
// Batches < Deltas means enqueues coalesced.
type WriterStats struct {
	// Batches is the number of completed ApplyBatch calls.
	Batches int
	// Deltas is the number of deltas processed (drained from the
	// queue), including failed ones.
	Deltas int
	// Failed is the number of processed deltas whose application
	// failed — skipped by the batch's partial semantics, observable
	// here and as the writer.failed counter.
	Failed int
}

// Stats reports the writer's progress so far.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WriterStats{Batches: w.batches, Deltas: w.done, Failed: w.failed}
}

func (w *Writer) loop() {
	w.mu.Lock()
	for {
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			// Closed and drained.
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = nil
		w.busy = true
		w.obQueue.Add(-int64(len(batch)))
		w.obBatchSize.Observe(int64(len(batch)))
		// Wake producers blocked on the (now empty) queue so they
		// refill it while this batch applies.
		w.cond.Broadcast()
		w.mu.Unlock()

		_, _, applied, err := w.m.applyBatch(batch)

		w.mu.Lock()
		w.busy = false
		w.batches++
		w.obBatches.Inc()
		// done advances by the whole batch — processed, not succeeded —
		// so Flush marks are always eventually beaten even when deltas
		// fail; the failures stay visible in failed/writer.failed.
		w.done += len(batch)
		if nf := len(batch) - applied; nf > 0 {
			w.failed += nf
			w.obFailed.Add(int64(nf))
		}
		if err != nil && w.err == nil {
			w.err = err
		}
		w.cond.Broadcast()
	}
}
