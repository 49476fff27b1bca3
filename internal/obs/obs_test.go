package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket assignment rule: an
// observation equal to a bound lands in that bound's bucket
// (inclusive upper bounds), one past it lands in the next, and values
// above every bound land in the implicit +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{0, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if len(s.Buckets) != 4 {
		t.Fatalf("buckets = %d, want 4 (3 bounds + inf)", len(s.Buckets))
	}
	wantCounts := []uint64{2, 2, 2, 2} // {0,10} {11,100} {101,1000} {1001,5000}
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d (le %d): count = %d, want %d", i, b.UpperBound, b.Count, wantCounts[i])
		}
	}
	if s.Buckets[3].UpperBound != math.MaxInt64 {
		t.Errorf("last bucket bound = %d, want MaxInt64", s.Buckets[3].UpperBound)
	}
	if s.Count != 8 || s.Min != 0 || s.Max != 5000 {
		t.Errorf("count/min/max = %d/%d/%d, want 8/0/5000", s.Count, s.Min, s.Max)
	}
	if s.Sum != 0+10+11+100+101+1000+1001+5000 {
		t.Errorf("sum = %d", s.Sum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]int64{100, 1, 10})
	h.Observe(5)
	s := h.Snapshot()
	if s.Buckets[0].UpperBound != 1 || s.Buckets[1].UpperBound != 10 || s.Buckets[2].UpperBound != 100 {
		t.Fatalf("bounds not sorted: %+v", s.Buckets)
	}
	if s.Buckets[1].Count != 1 {
		t.Fatalf("5 should land in le=10 bucket: %+v", s.Buckets)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Uniform 1..100: p50 ~ 50, p99 ~ 99. Interpolation is approximate;
	// accept one bucket's width of slack.
	if s.P50 < 40 || s.P50 > 60 {
		t.Errorf("p50 = %d, want ~50", s.P50)
	}
	if s.P99 < 90 || s.P99 > 100 {
		t.Errorf("p99 = %d, want ~99", s.P99)
	}
	if q := s.Quantile(0); q < 1 || q > 10 {
		t.Errorf("q0 = %d, want ~min", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("q1 = %d, want 100 (max)", q)
	}
}

func TestHistogramQuantileSingleObservation(t *testing.T) {
	h := newHistogram(DurationBuckets())
	h.Observe(1234)
	s := h.Snapshot()
	// With one observation clamping to min/max must report the exact
	// value, not a bucket bound.
	if s.P50 != 1234 || s.P99 != 1234 {
		t.Errorf("p50/p99 = %d/%d, want 1234/1234", s.P50, s.P99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(SizeBuckets())
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty snapshot not zero: %+v", s)
	}
}

// TestNilInstrumentsNoOp pins the package's core contract: every
// method on nil handles is safe.
func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Error("nil gauge value != 0")
	}
	var h *Histogram
	h.Observe(1)
	if !h.Start().IsZero() {
		t.Error("nil histogram Start should return zero time")
	}
	h.ObserveSince(time.Time{})
	h.ObserveSince(h.Start())
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}
	var tr *Tracer
	sp := tr.Begin("x")
	sp.End()
	sp.EndLabel("y")
	if tr.Recent() != nil {
		t.Error("nil tracer Recent != nil")
	}
	var r *Registry
	if r.Counter("a", "") != nil || r.Gauge("b", "") != nil ||
		r.Histogram("c", "", nil) != nil {
		t.Error("nil registry returned non-nil instrument")
	}
	if s := r.Snapshot(); s.Counters == nil || len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

// TestConcurrentIncrements hammers every instrument type from many
// goroutines; run under -race this is the satellite-required
// concurrent-increment race test, and the totals pin atomicity.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", SizeBuckets())
	tr := NewTracer(16)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 128))
				if i%500 == 0 {
					sp := tr.Begin("phase")
					sp.EndLabel("w")
					_ = tr.Recent()
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	const total = workers * iters
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %d, want %d", got, total)
	}
	if got := h.Snapshot().Count; got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x", "") != r.Counter("x", "other help") {
		t.Error("Counter not idempotent by name")
	}
	if r.Histogram("h", "", []int64{1}) != r.Histogram("h", "", []int64{2, 3}) {
		t.Error("Histogram not idempotent by name")
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for _, l := range []string{"a", "b", "c", "d", "e"} {
		tr.Begin("phase").EndLabel(l)
	}
	evs := tr.Recent()
	if len(evs) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(evs))
	}
	for i, want := range []string{"c", "d", "e"} {
		if evs[i].Label != want {
			t.Errorf("ring[%d] = %q, want %q (oldest first)", i, evs[i].Label, want)
		}
		if evs[i].Name != "phase" || evs[i].Dur < 0 {
			t.Errorf("ring[%d] malformed: %+v", i, evs[i])
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("wal.commits", "total commits").Add(7)
	r.Gauge("writer.queue_depth", "").Set(3)
	h := r.Histogram("wal.group_size", "records per fsync group", SizeBuckets())
	h.Observe(4)
	h.Observe(90000) // lands in +Inf
	tr := NewTracer(4)
	tr.Begin("repair").EndLabel("c0")

	srv := httptest.NewServer(Handler(r, tr))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	prom := get("/metrics")
	for _, want := range []string{
		"wal_commits 7",
		"writer_queue_depth 3",
		"wal_group_size_count 2",
		`wal_group_size_bucket{le="+Inf"} 2`,
		`wal_group_size_bucket{le="4"} 1`,
		"# TYPE wal_group_size histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, prom)
		}
	}

	vars := get("/vars")
	for _, want := range []string{`"wal.commits": 7`, `"writer.queue_depth": 3`} {
		if !strings.Contains(vars, want) {
			t.Errorf("/vars missing %q in:\n%s", want, vars)
		}
	}

	events := get("/events")
	if !strings.Contains(events, `"repair"`) || !strings.Contains(events, `"c0"`) {
		t.Errorf("/events missing span in:\n%s", events)
	}
}
