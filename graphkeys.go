// Package graphkeys is a Go implementation of "Keys for Graphs"
// (Wenfei Fan, Zhe Fan, Chao Tian, Xin Luna Dong; PVLDB 8(12), 2015):
// keys for graph-structured data defined as graph patterns, interpreted
// by subgraph isomorphism, possibly recursively — and the entity
// matching problem built on them, computing chase(G, Σ): all pairs of
// vertices a set of keys identifies as the same real-world entity.
//
// # Quick start
//
//	g := graphkeys.NewGraph()
//	g.AddEntity("alb1", "album")
//	g.AddValueTriple("alb1", "name_of", "Anthology 2")
//	g.AddValueTriple("alb1", "release_year", "1996")
//	// ... more triples ...
//
//	ks, _ := graphkeys.ParseKeys(`
//	key Q2 for album {
//	    x -name_of-> name*
//	    x -release_year-> year*
//	}`)
//
//	res, _ := graphkeys.Match(g, ks, graphkeys.Options{})
//	for _, m := range res.Matches {
//	    fmt.Println(m.A, "and", m.B, "are the same entity")
//	}
//
// Six engines are available: the sequential chase (the reference), the
// parallel chase (ParallelChase, the serving-grade engine: candidate
// checks fan out over a worker pool against the shard-partitioned
// store), the MapReduce family (EMMR, EMVF2MR, EMOptMR) and the
// vertex-centric family (EMVC, EMOptVC), all returning identical
// results; the engines differ in how the work parallelizes, which is
// the subject of the paper's experimental study (reproduced in this
// repository's benchmarks).
package graphkeys

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"graphkeys/internal/chase"
	"graphkeys/internal/emmr"
	"graphkeys/internal/emvc"
	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// EntityID names an entity in a Graph; it is the external identifier
// the caller supplied to AddEntity.
type EntityID = string

// Graph is a mutable triple store: entities with types, values, and
// predicate-labeled edges. Build it with the Add methods or load the
// text format with LoadGraph; it is safe for concurrent readers once
// building is done.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{g: graph.New()} }

// AddEntity ensures an entity with the given external ID and type
// exists. Re-adding with a different type is an error.
func (g *Graph) AddEntity(id EntityID, typeName string) error {
	_, err := g.g.AddEntity(id, typeName)
	return err
}

// AddEntityTriple records (subject, predicate, object) between two
// entities, creating neither: both must have been added.
func (g *Graph) AddEntityTriple(subject EntityID, predicate string, object EntityID) error {
	s, ok := g.g.Entity(subject)
	if !ok {
		return fmt.Errorf("graphkeys: unknown subject entity %q", subject)
	}
	o, ok := g.g.Entity(object)
	if !ok {
		return fmt.Errorf("graphkeys: unknown object entity %q", object)
	}
	return g.g.AddTriple(s, predicate, o)
}

// AddValueTriple records (subject, predicate, value) where value is a
// data literal.
func (g *Graph) AddValueTriple(subject EntityID, predicate string, value string) error {
	s, ok := g.g.Entity(subject)
	if !ok {
		return fmt.Errorf("graphkeys: unknown subject entity %q", subject)
	}
	return g.g.AddTriple(s, predicate, g.g.AddValue(value))
}

// NumTriples reports |G|.
func (g *Graph) NumTriples() int { return g.g.NumTriples() }

// NumEntities reports the number of entities.
func (g *Graph) NumEntities() int { return g.g.NumEntities() }

// NumNodes reports entities plus values.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// HasEntity reports whether the entity exists, with its type.
func (g *Graph) HasEntity(id EntityID) (typeName string, ok bool) {
	n, ok := g.g.Entity(id)
	if !ok {
		return "", false
	}
	return g.g.TypeName(g.g.TypeOf(n)), true
}

// Write serializes the graph in the text format (one tab-separated
// triple per line; see LoadGraph).
func (g *Graph) Write(w io.Writer) error { return g.g.WriteText(w) }

// LoadGraph parses the text format:
//
//	subject <TAB> predicate <TAB> object
//
// with entities written id:Type and values as Go-quoted strings.
func LoadGraph(r io.Reader) (*Graph, error) {
	gg, err := graph.ParseText(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// KeySet is a parsed, validated set Σ of keys.
type KeySet struct {
	set *keys.Set
}

// ParseKeys parses keys in the DSL:
//
//	key Q1 for album {
//	    x -name_of-> name*
//	    x -recorded_by-> $y:artist
//	}
//
// Node tokens: x (the designated variable), $y:type (entity variable;
// makes the key recursive), name* (value variable), _:type (wildcard),
// "literal" (constant).
func ParseKeys(src string) (*KeySet, error) {
	return ParseKeysFrom(strings.NewReader(src))
}

// ParseKeysFrom is ParseKeys reading from r.
func ParseKeysFrom(r io.Reader) (*KeySet, error) {
	set, err := keys.Parse(r)
	if err != nil {
		return nil, err
	}
	return &KeySet{set: set}, nil
}

// Names returns the key names in input order.
func (k *KeySet) Names() []string {
	var out []string
	for _, key := range k.set.Keys() {
		out = append(out, key.Name)
	}
	return out
}

// Len returns ||Σ||, the number of keys.
func (k *KeySet) Len() int { return k.set.Cardinality() }

// Size returns |Σ|, the total number of pattern triples.
func (k *KeySet) Size() int { return k.set.TotalSize() }

// MaxRadius returns the largest key radius d(Q, x) in the set.
func (k *KeySet) MaxRadius() int { return k.set.MaxRadius() }

// LongestChain returns the longest dependency chain length c induced by
// the recursive keys, and whether the dependency graph is cyclic
// (mutually recursive keys).
func (k *KeySet) LongestChain() (c int, cyclic bool) { return k.set.LongestChain() }

// Format renders the set back into the DSL.
func (k *KeySet) Format() string { return k.set.Format() }

// Engine selects the algorithm computing chase(G, Σ).
type Engine int

const (
	// Chase is the sequential reference algorithm (§3).
	Chase Engine = iota
	// MapReduce is EMMR (§4.1): guided-search checking in synchronized
	// rounds over a simulated MapReduce runtime.
	MapReduce
	// MapReduceVF2 is EM^VF2_MR: the enumerate-all baseline checker.
	MapReduceVF2
	// MapReduceOpt is EM^Opt_MR (§4.2): pairing-filtered candidates,
	// reduced neighborhoods, dependency-driven incremental checking.
	MapReduceOpt
	// VertexCentric is EMVC (§5.1): asynchronous message passing over
	// the product graph.
	VertexCentric
	// VertexCentricOpt is EM^Opt_VC (§5.2): bounded messages and
	// prioritized propagation.
	VertexCentricOpt
	// ParallelChase is the chase parallelized on the shared engine
	// substrate: candidate checks partition across Options.Parallelism
	// workers, identifications merge through a lock-protected Eq, and
	// a dependency worklist drives recursive re-checks. By
	// Church–Rosser it returns exactly the sequential chase's result.
	ParallelChase
)

// String names the engine as in the paper.
func (e Engine) String() string {
	switch e {
	case Chase:
		return "Chase"
	case MapReduce:
		return "EMMR"
	case MapReduceVF2:
		return "EMVF2MR"
	case MapReduceOpt:
		return "EMOptMR"
	case VertexCentric:
		return "EMVC"
	case VertexCentricOpt:
		return "EMOptVC"
	case ParallelChase:
		return "ParallelChase"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures Match.
type Options struct {
	// Engine selects the algorithm; the zero value is Chase, the
	// sequential reference. VertexCentricOpt is the paper's fastest.
	Engine Engine
	// Workers is the parallelism p (ignored by Chase); the default is
	// GOMAXPROCS capped at 4.
	Workers int
	// Parallelism is the worker count of the ParallelChase engine and
	// of the region and partner scans that seed a Matcher's incremental
	// repair pass (the re-chase of the seeds is one in-order drain);
	// when unset it falls back to Workers (and then to the same
	// default). Other engines ignore it. Repair output is byte-identical
	// at every worker count.
	Parallelism int
	// BoundK bounds in-flight message copies per pair and key for
	// VertexCentricOpt; 0 means the paper's default of 4.
	BoundK int
	// ValueEq optionally replaces exact value equality with a
	// similarity predicate (paper §2.2 Remark (1)).
	ValueEq func(a, b string) bool
	// FullCandidateSweep disables value-indexed candidate generation
	// and forces the engines to enumerate the full O(n²) per-type
	// candidate sweep. Results are identical either way; the flag
	// exists for measurement and differential testing. Types whose
	// keys lack value anchors, and matchers with a custom ValueEq,
	// always use the full sweep regardless.
	FullCandidateSweep bool
	// Durability selects the WAL append policy of a durable Matcher;
	// only OpenMatcher and SeedMatcher read it. The zero value appends
	// without fsync.
	Durability Durability
}

func (o Options) workers() int { return engine.Workers(o.Workers) }

func (o Options) parallelism() int {
	if o.Parallelism >= 1 {
		return o.Parallelism
	}
	return o.workers()
}

// Pair is an identified entity pair.
type Pair struct {
	A, B EntityID
}

// Result is the outcome of entity matching.
type Result struct {
	// Matches is chase(G, Σ): every identified pair (including pairs
	// implied by transitivity), lexicographically sorted by entity ID
	// order of insertion.
	Matches []Pair
	// Classes groups the matched entities into equivalence classes of
	// size >= 2.
	Classes [][]EntityID
	// Engine is the engine that produced the result.
	Engine Engine
}

// Match computes chase(G, Σ): all entity pairs identified by the keys.
// Every engine returns the same Matches; they differ in execution
// strategy and cost.
func Match(g *Graph, ks *KeySet, opts Options) (*Result, error) {
	if g == nil || ks == nil {
		return nil, fmt.Errorf("graphkeys: Match requires a graph and a key set")
	}
	mo := match.Options{ValueEq: opts.ValueEq, FullSweep: opts.FullCandidateSweep}
	var pairs []eqrel.Pair
	switch opts.Engine {
	case Chase:
		res, err := chase.Run(g.g, ks.set, chase.Options{Match: mo})
		if err != nil {
			return nil, err
		}
		pairs = res.Pairs
	case ParallelChase:
		res, err := chase.Run(g.g, ks.set, chase.Options{Match: mo, Parallelism: opts.parallelism()})
		if err != nil {
			return nil, err
		}
		pairs = res.Pairs
	case MapReduce, MapReduceVF2, MapReduceOpt:
		variant := emmr.Base
		if opts.Engine == MapReduceVF2 {
			variant = emmr.VF2
		} else if opts.Engine == MapReduceOpt {
			variant = emmr.Opt
		}
		res, err := emmr.Run(g.g, ks.set, emmr.Config{P: opts.workers(), Variant: variant, Match: mo})
		if err != nil {
			return nil, err
		}
		pairs = res.Pairs
	case VertexCentric, VertexCentricOpt:
		variant := emvc.Base
		if opts.Engine == VertexCentricOpt {
			variant = emvc.Opt
		}
		res, err := emvc.Run(g.g, ks.set, emvc.Config{P: opts.workers(), Variant: variant, K: opts.BoundK, Match: mo})
		if err != nil {
			return nil, err
		}
		pairs = res.Pairs
	default:
		return nil, fmt.Errorf("graphkeys: unknown engine %v", opts.Engine)
	}
	return buildResult(g, pairs, opts.Engine), nil
}

// buildResult labels chase(G, Σ) and groups it into classes. pairs is
// sorted and closed under transitivity (eqrel.Eq.Pairs), so the run of
// pairs that starts at a class's smallest member lists the rest of the
// class, and every other member is the B of some pair. Members and
// classes are sorted by label, so the output is deterministic.
func buildResult(g *Graph, pairs []eqrel.Pair, eng Engine) *Result {
	res := &Result{Engine: eng, Matches: slices.Grow([]Pair(nil), len(pairs))}
	later := make([]int32, len(pairs))
	for i, pr := range pairs {
		res.Matches = append(res.Matches, Pair{
			A: g.g.Label(graph.NodeID(pr.A)),
			B: g.g.Label(graph.NodeID(pr.B)),
		})
		later[i] = pr.B
	}
	slices.Sort(later)
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].A == pairs[i].A {
			j++
		}
		if _, found := slices.BinarySearch(later, pairs[i].A); !found {
			class := append(make([]EntityID, 0, j-i+1), res.Matches[i].A)
			for _, m := range res.Matches[i:j] {
				class = append(class, m.B)
			}
			sort.Strings(class)
			res.Classes = append(res.Classes, class)
		}
		i = j
	}
	sort.Slice(res.Classes, func(i, j int) bool { return res.Classes[i][0] < res.Classes[j][0] })
	return res
}

// Violation reports that the graph does not satisfy a key: two distinct
// entities have coinciding matches under plain node identity (G ⊭ Q).
type Violation struct {
	A, B EntityID
	Key  string
}

// Validate checks key satisfaction G ⊨ Σ (§2.2): it returns every
// violation, or none if the graph satisfies all keys.
func Validate(g *Graph, ks *KeySet, opts Options) ([]Violation, error) {
	if g == nil || ks == nil {
		return nil, fmt.Errorf("graphkeys: Validate requires a graph and a key set")
	}
	vs, err := chase.Violations(g.g, ks.set, match.Options{ValueEq: opts.ValueEq})
	if err != nil {
		return nil, err
	}
	var out []Violation
	for _, v := range vs {
		out = append(out, Violation{
			A:   g.g.Label(graph.NodeID(v.Pair.A)),
			B:   g.g.Label(graph.NodeID(v.Pair.B)),
			Key: v.Key,
		})
	}
	return out, nil
}

// ProofStep is one step of an explanation: the key that identified the
// pair and the previously identified pairs it required.
type ProofStep struct {
	A, B     EntityID
	Key      string
	Requires []Pair
}

// Proof explains why two entities were identified: a sequence of key
// applications (a proof graph in the sense of the paper's Theorem 2)
// ending with the target pair, each step depending only on earlier
// ones.
type Proof struct {
	Target Pair
	Steps  []ProofStep
}

// Explain runs the sequential chase and extracts a verifiable proof
// that a and b are identified by the keys. It fails if they are not.
func Explain(g *Graph, ks *KeySet, a, b EntityID, opts Options) (*Proof, error) {
	na, ok := g.g.Entity(a)
	if !ok {
		return nil, fmt.Errorf("graphkeys: unknown entity %q", a)
	}
	nb, ok := g.g.Entity(b)
	if !ok {
		return nil, fmt.Errorf("graphkeys: unknown entity %q", b)
	}
	res, err := chase.Run(g.g, ks.set, chase.Options{Match: match.Options{ValueEq: opts.ValueEq}})
	if err != nil {
		return nil, err
	}
	proof, err := res.Prove(na, nb)
	if err != nil {
		return nil, err
	}
	out := &Proof{Target: Pair{A: a, B: b}}
	for _, st := range proof.Steps {
		ps := ProofStep{
			A:   g.g.Label(graph.NodeID(st.Pair.A)),
			B:   g.g.Label(graph.NodeID(st.Pair.B)),
			Key: st.Key,
		}
		for _, rq := range st.Requires {
			ps.Requires = append(ps.Requires, Pair{
				A: g.g.Label(graph.NodeID(rq.A)),
				B: g.g.Label(graph.NodeID(rq.B)),
			})
		}
		out.Steps = append(out.Steps, ps)
	}
	return out, nil
}
