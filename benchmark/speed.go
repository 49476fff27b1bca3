package main

import "time"

// The sandbox this benchmark was built on changes speed as a whole:
// for minutes at a time everything — Match, recovery, a loopback
// round trip, a loop that touches no part of graphkeys — runs 10 to
// 40 % slower than in other minutes, for reasons invisible from inside
// it (no steal time, no pressure). Ten runs that straddle such a change
// spread by as much as the largest bound a metric may have.
//
// So a run measures the machine beside the program: a fixed loop of
// map updates over a few megabytes, written here and calling nothing
// of graphkeys, is timed before and after every slice of every stage.
// The median loop time over its reference time is the run's speed
// factor, and every end-to-end timing of the run is divided by it: the
// numbers read "seconds on a machine that runs the loop in
// refLoopSeconds", which is this sandbox in its fast minutes. The
// clock's own readings stay beside them as `raw` in every output but
// the one result line, whose shape is fixed. Over ten seeds this halves
// the quartile spread of the timings when the machine drifts during
// them and leaves it as it was when it does not.
//
// A change to graphkeys cannot move the loop, so a gain or a
// regression shows in full. The loop feels a slow minute somewhat more
// than Match does (it lives in the shared cache) and an fsync feels it
// less than either: this is a first-order correction, not an exact
// one, and a run in a slow minute reads a little low where without it
// it would read far too high.
const (
	refLoopSeconds = 0.030
	loopSteps      = 600_000
	loopKeys       = 1 << 18
	loopsPerSample = 3
)

type speedometer struct {
	loops []float64 // seconds per loop
	sink  map[uint32]uint32
}

// sample times the loop loopsPerSample times.
func (s *speedometer) sample() {
	for r := 0; r < loopsPerSample; r++ {
		t0 := time.Now()
		m := make(map[uint32]uint32, 1<<12)
		x := uint32(1)
		for i := 0; i < loopSteps; i++ {
			x = x*1664525 + 1013904223
			m[x>>12&(loopKeys-1)] += x
		}
		s.sink = m
		s.loops = append(s.loops, time.Since(t0).Seconds())
	}
}

// factor is how much slower than the reference the machine ran.
func (s *speedometer) factor() float64 {
	if len(s.loops) == 0 {
		return 1
	}
	return median(s.loops) / refLoopSeconds
}
