// Package graph shims graphkeys/internal/graph for the fixtures: the
// Graph mutator surface for the readonly analyzer and the DeltaCommit
// hook type for the dropped-error rule.
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

// DeltaCommit is the commit a per-record log hands back.
type DeltaCommit func() error
