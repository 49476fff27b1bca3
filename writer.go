package graphkeys

import (
	"fmt"
	"sync"

	"graphkeys/internal/obs"
)

// Writer batches a stream of small deltas into Matcher.ApplyBatch
// calls: one maintenance pass, and on a durable matcher one WAL group
// and one fsync, per batch instead of per delta.
// Apply buffers the delta; the Apply that fills the buffer to
// maxPending deltas applies it inline, holding the Writer's lock, so
// concurrent producers each keep their order and a later delta sees
// every earlier one. Flush and Close apply the rest.
//
// Errors are sticky and fail-stop: the first failed batch's error is
// returned by every later Apply, Flush and Close, and new deltas are
// rejected. The batch itself ends as ApplyBatch leaves it (a delta
// failing validation is skipped alone, a log failure fails the whole
// batch), and its deltas that did not apply count in Stats.Failed and
// writer.failed.
// Create a fresh Writer to resume the stream.
type Writer struct {
	m *Matcher

	mu     sync.Mutex
	buf    []*Delta
	closed bool
	err    error
	stats  WriterStats

	// The matcher's writer.* instruments, shared by its Writers.
	obBatches   *obs.Counter
	obBatchSize *obs.Histogram
	obFailed    *obs.Counter
}

// maxPending is the Writer's batch size: the Apply that buffers this
// many deltas applies them.
const maxPending = 1024

// NewWriter returns a Writer over the matcher. Close it when done.
func (m *Matcher) NewWriter() *Writer {
	return &Writer{
		m:           m,
		obBatches:   m.reg.Counter("writer.batches", "batches applied"),
		obBatchSize: m.reg.Histogram("writer.batch_size", "deltas per batch", obs.SizeBuckets()),
		obFailed:    m.reg.Counter("writer.failed", "deltas whose application failed"),
	}
}

// Apply buffers the delta, and applies the buffer once it holds
// maxPending deltas. It fails after Close, or once a delta has failed.
func (w *Writer) Apply(d *Delta) error {
	if d == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("graphkeys: Writer is closed")
	}
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, d)
	if len(w.buf) < maxPending {
		return nil
	}
	return w.flushLocked()
}

// Flush applies every buffered delta and returns the sticky error, if
// any.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// Close applies every buffered delta and returns the sticky error.
// Further Applies fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return w.flushLocked()
}

// flushLocked applies the buffer, if any, as one batch and returns the
// sticky error. Caller holds w.mu; the buffer is empty once w.err is set.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return w.err
	}
	batch := w.buf
	w.buf = nil
	w.obBatchSize.Observe(int64(len(batch)))
	_, outcomes, err := w.m.ApplyBatch(batch)
	failed := len(batch)
	for _, o := range outcomes {
		if o.Err == nil {
			failed--
		}
	}
	w.stats.Batches++
	w.stats.Deltas += len(batch)
	w.stats.Failed += failed
	w.obBatches.Inc()
	w.obFailed.Add(int64(failed))
	w.err = err
	return err
}

// WriterStats is a Writer's progress: Batches ApplyBatch calls over
// Deltas deltas, Failed of which did not apply — skipped for failing
// validation, or failed with their batch at the log.
type WriterStats struct {
	Batches int
	Deltas  int
	Failed  int
}

// Stats reports the writer's progress so far.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
