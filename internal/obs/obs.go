// Package obs is the observability substrate of the matching system: a
// zero-dependency, allocation-light metrics registry (atomic counters,
// gauges, bounded-bucket histograms with quantile estimates) plus a
// lightweight phase tracer (trace.go). Every layer — the planned
// write path, the WAL, the incremental
// repair pass, the engine substrate, and the public Matcher/Writer —
// threads its instruments from here; http.go exposes a registry over
// HTTP in Prometheus text and JSON forms.
//
// Instrument handles are nil-safe: every method on a nil *Counter,
// *Gauge, *Histogram or *Tracer is a no-op. Each layer keeps its
// handles in one instrument bundle (graph.Obs, wal.Obs, inc.Obs,
// match.Obs, engine.Obs) that is never nil: graph and wal hold theirs
// by value, and inc.New, match.New and engine.Parallel swap a nil
// bundle for the zero one. A layer reads handle fields directly and
// records unconditionally — an uninstrumented run pays one nil check
// per event and nothing else.
// Hot paths that would otherwise call time.Now for a disabled
// histogram use Histogram.Start/ObserveSince, which skip the clock
// read entirely when the handle is nil.
//
// Instrumentation never participates in control flow: enabling a
// registry or tracer cannot change what any engine computes. The
// differential tests in internal/inc pin that (pairs, step log and
// stats byte-identical with obs on and off at every worker count).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0; counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready; a
// nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded-bucket histogram of int64 observations
// (latencies in nanoseconds, sizes in items or bytes). Buckets are
// cumulative-style upper bounds, ascending, with an implicit +Inf
// bucket at the end; counts, sum, min and max are atomics, so Observe
// is lock-free and safe for concurrent use. A nil *Histogram no-ops.
type Histogram struct {
	bounds []int64 // ascending upper bounds (inclusive); +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
	min    atomic.Int64 // valid iff count > 0
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; linear would also do for
	// the typical 15-25 buckets, but Search keeps it O(log b) and
	// allocation-free either way.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Start returns the current time for a later ObserveSince, or the zero
// time when the histogram is nil — skipping the clock read entirely on
// uninstrumented paths.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the nanoseconds elapsed since t0, no-oping on a
// nil histogram or a zero t0 (the Start of a nil handle).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0).Nanoseconds())
}

// Snapshot captures the histogram's current state. Concurrent Observes
// may land between field reads; each field is individually consistent,
// which is all a monitoring read needs.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		ub := int64(math.MaxInt64)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	return s
}

// Bucket is one histogram bucket: the count of observations at or
// below UpperBound and above the previous bucket's bound. The last
// bucket's UpperBound is math.MaxInt64 (the +Inf bucket).
type Bucket struct {
	UpperBound int64
	Count      uint64
}

// HistogramSnapshot is a point-in-time view of a Histogram.
type HistogramSnapshot struct {
	Count    uint64
	Sum      int64
	Min, Max int64
	P50, P99 int64
	Buckets  []Bucket
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the bucket holding the target rank, clamped to
// the observed min/max so tiny samples do not report a bucket bound
// nothing ever reached. Returns 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	lo := s.Min
	for _, b := range s.Buckets {
		if b.Count == 0 {
			continue
		}
		hi := b.UpperBound
		if hi > s.Max {
			hi = s.Max
		}
		if seen+float64(b.Count) >= rank {
			frac := (rank - seen) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			v := float64(lo) + frac*float64(hi-lo)
			return int64(v)
		}
		seen += float64(b.Count)
		lo = hi
	}
	return s.Max
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// DurationBuckets returns the default latency bucket bounds in
// nanoseconds: a 1-2-5 series from 1µs to 10s. Sub-microsecond
// observations land in the first bucket, which is fine — the paths
// instrumented here (lock waits, fsyncs, repair phases) only get
// interesting above it.
func DurationBuckets() []int64 {
	var out []int64
	for _, base := range []int64{int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond),
		int64(time.Millisecond), int64(10 * time.Millisecond), int64(100 * time.Millisecond), int64(time.Second)} {
		out = append(out, base, 2*base, 5*base)
	}
	return append(out, int64(10*time.Second))
}

// SizeBuckets returns the default size bucket bounds: powers of two
// from 1 to 64Ki, for group sizes, batch sizes, posting lengths and
// queue depths.
func SizeBuckets() []int64 {
	var out []int64
	for b := int64(1); b <= 1<<16; b <<= 1 {
		out = append(out, b)
	}
	return out
}

// metric is one registered instrument plus its metadata.
type metric struct {
	name string
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of instruments. Registration
// (Counter, Gauge, Histogram) is idempotent by name —
// asking again returns the same instrument — and guarded by a mutex;
// the instruments themselves are lock-free. A nil *Registry returns
// nil instruments from every constructor, so wiring code can thread an
// optional registry without branching.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) lookup(name, help string) *metric {
	m, ok := r.byName[name]
	if !ok {
		m = &metric{name: name, help: help}
		r.byName[name] = m
		r.ordered = append(r.ordered, m)
	}
	return m
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram registers (or returns the existing) histogram under name
// with the given bucket upper bounds (ignored if already registered).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help)
	if m.h == nil {
		m.h = newHistogram(bounds)
	}
	return m.h
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// keyed by metric name.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures the current value of every registered instrument.
// On a nil registry it returns an empty (non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()
	for _, m := range metrics {
		switch {
		case m.c != nil:
			s.Counters[m.name] = m.c.Value()
		case m.g != nil:
			s.Gauges[m.name] = m.g.Value()
		case m.h != nil:
			s.Histograms[m.name] = m.h.Snapshot()
		}
	}
	return s
}
