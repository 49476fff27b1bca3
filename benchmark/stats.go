package main

import (
	"math"
	"sort"
	"time"
)

// sample is one reported number: the value, its unit, how many
// observations it summarises and their quartiles.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Raw   float64 `json:"raw,omitempty"` // the value as the clock read it, where Value is that divided by the run's speed factor
}

// scaled multiplies the value and its quartiles by f and keeps the
// unscaled value as Raw.
func (s sample) scaled(f float64) sample {
	s.Raw = s.Value
	s.Value, s.Q1, s.Q3 = s.Value*f, s.Q1*f, s.Q3*f
	return s
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the acceptance rule for run-to-run spread is
// stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// summarize reports q of the observations as the value (0.5 for a
// median), with their count and quartiles.
func summarize(xs []float64, q float64, unit string) sample {
	s := sortedCopy(xs)
	return sample{Value: quantile(s, q), Unit: unit, N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// counted is a value derived from n observations that has no
// quartiles of its own; scalar is one observation.
func counted(v float64, unit string, n int) sample {
	return sample{Value: v, Unit: unit, N: n, Q1: v, Q3: v}
}

func scalar(v float64, unit string) sample { return counted(v, unit, 1) }

// pooled is the median of all observations of all slices together.
func pooled(slices [][]float64, unit string) sample {
	var all []float64
	for _, xs := range slices {
		all = append(all, xs...)
	}
	return summarize(all, 0.5, unit)
}

// sliceTail is the q-quantile of every slice that has observations,
// and of those the median: one stall of the shared disk cannot move it.
// The quartiles and N are those of all observations pooled.
func sliceTail(slices [][]float64, q float64, unit string) sample {
	var per []float64
	for _, xs := range slices {
		if len(xs) > 0 {
			per = append(per, quantile(sortedCopy(xs), q))
		}
	}
	s := pooled(slices, unit)
	if len(per) > 0 {
		s.Value = median(per)
	}
	return s
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
