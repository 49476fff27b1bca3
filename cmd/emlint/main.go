// Command emlint is the repo's invariant linter: custom static
// analyzers for map-iteration determinism (maporder), read-only
// derivation engines (readonly), allocation-free per-event
// instrumentation (obshandle), write-ahead durability error handling
// (walerr), and wall-clock test verdicts (walltime). See internal/lint
// and the "Static analysis" section of the README.
//
// Run it through go vet:
//
//	go build -o /tmp/emlint ./cmd/emlint
//	go vet -vettool=/tmp/emlint ./...
//
// or directly — `emlint ./...` re-executes itself via go vet.
package main

import "graphkeys/internal/lint"

func main() { lint.Main() }
