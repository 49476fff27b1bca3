// Package obs shims graphkeys/internal/obs for the fixtures: the
// nil-safe handle types and their per-event methods, matched by path
// suffix and name.
package obs

type Counter struct{}

func (c *Counter) Inc()          {}
func (c *Counter) Add(n float64) {}

type Gauge struct{}

func (g *Gauge) Inc()          {}
func (g *Gauge) Dec()          {}
func (g *Gauge) Set(v float64) {}

type Histogram struct{}

func (h *Histogram) Observe(v float64)     {}
func (h *Histogram) ObserveSince(t0 int64) {}

type Tracer struct{}

type Span struct{}

func (t *Tracer) Begin(name string) Span { return Span{} }

func (s Span) End()                  {}
func (s Span) EndLabel(label string) {}
