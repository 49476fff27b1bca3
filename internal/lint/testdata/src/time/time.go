// Package time is a minimal stand-in for the standard library's time
// package (matched by path; see the sort shim).
package time

type Duration int64

const Millisecond Duration = 1000000

type Time struct{ ns int64 }

func Now() Time                     { return Time{} }
func Since(t Time) Duration         { return 0 }
func Until(t Time) Duration         { return 0 }
func (t Time) Sub(u Time) Duration  { return 0 }
func (d Duration) Seconds() float64 { return 0 }
func Sleep(d Duration)              {}
