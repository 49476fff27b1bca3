package obsuse

import (
	"fmt"

	"internal/obs"
)

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
