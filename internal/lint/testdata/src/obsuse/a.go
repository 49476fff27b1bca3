package obsuse

import (
	"fmt"

	"internal/obs"
)

type metrics struct {
	hits *obs.Counter
	wait *obs.Histogram
}

// Reading a handle field off a local (wired elsewhere, possibly nil)
// without a guard.
func unguarded(ms map[string]*metrics, key string) {
	m := ms[key]
	m.hits.Inc() // want "without a nil guard"
}

// A nil check anywhere in the function counts.
func guarded(ms map[string]*metrics, key string) {
	m := ms[key]
	if m.hits == nil {
		return
	}
	m.hits.Inc()
}

type bundle struct {
	admission *obs.Histogram
}

// The accessor pattern: a method of the owning struct picks the
// field; the handle's methods absorb nil.
func (b *bundle) admissionWait() *obs.Histogram { return b.admission }

func histOf(b *bundle, pick func(*bundle) *obs.Histogram) *obs.Histogram {
	if b == nil {
		return nil
	}
	return pick(b)
}

// A closure parameter is the same contract as a method receiver.
func wired(b *bundle) *obs.Histogram {
	return histOf(b, func(o *bundle) *obs.Histogram { return o.admission })
}

// Assigning INTO a handle field is wiring, not instrumentation.
func wire(reg map[string]*obs.Histogram) *bundle {
	b := &bundle{}
	b.admission = reg["admission_wait"]
	return b
}

// Per-event calls must not allocate their arguments.
func perEventAlloc(t *obs.Tracer, h *obs.Histogram, phase string, n int) {
	t.Begin(fmt.Sprintf("phase-%d", n)) // want "must not allocate"
	t.Begin("phase-" + phase)           // want "must not allocate"
	t.Begin("planned")
	const prefix = "phase-"
	t.Begin(prefix + "lower")
	h.Observe(float64(n))
}

func spanName(t *obs.Tracer, i int) {
	sp := t.Begin(fmt.Sprintf("round-%d", i)) // want "must not allocate"
	sp.End()
}
