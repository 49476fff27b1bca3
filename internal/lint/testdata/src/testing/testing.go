// Package testing is a minimal stand-in for the standard library's
// testing package (matched by path; see the sort shim).
package testing

type T struct{}

func (t *T) Error(args ...any)                 {}
func (t *T) Errorf(format string, args ...any) {}
func (t *T) Fatal(args ...any)                 {}
func (t *T) Fatalf(format string, args ...any) {}
func (t *T) Logf(format string, args ...any)   {}
