// Package graph shims graphkeys/internal/graph for the fixtures: the
// Graph mutator surface for the read-only-engine rule, the
// DeltaCommit hook type for the blocking-call and dropped-error
// rules, and (in shard.go) the shard struct for the shard-lock rule.
package graph

type Graph struct{}

func (g *Graph) AddEntity(id, typ string) int32     { return 0 }
func (g *Graph) MustAddEntity(id, typ string) int32 { return 0 }
func (g *Graph) AddValue(lit string) int32          { return 0 }
func (g *Graph) AddTriple(s, p, o int32) error      { return nil }
func (g *Graph) MustAddTriple(s, p, o int32)        {}
func (g *Graph) ApplyDelta(d *Delta) error          { return nil }
func (g *Graph) ApplyDeltaLogged(d *Delta) error    { return nil }

func (g *Graph) Out(n int32) []int32  { return nil }
func (g *Graph) TypeOf(n int32) int32 { return 0 }

type Delta struct{}

// DeltaCommit is the group-commit wait handed back by the write-ahead
// hook.
type DeltaCommit func() error
