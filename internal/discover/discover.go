// Package discover implements a baseline key-discovery algorithm — the
// future-work direction §7 of "Keys for Graphs" defers ("develop
// efficient algorithms for discovering keys"). Given a graph and an
// entity type, it mines graph-pattern keys that hold on the graph
// (G ⊨ Q, no two distinct entities coincide) and meet a minimum
// support, searching three pattern families in increasing complexity:
//
//   - value-based keys: combinations of value attributes of x
//     (x -p-> v*), the relational-key analogue;
//   - wildcard-extended keys: value attributes plus typed entity
//     neighbors whose identity is not required (x -p-> _:t);
//   - recursive keys: value attributes plus one identified entity
//     neighbor (x -p-> $y:t or $y:t -p-> x), which are the graph-only
//     keys of the paper.
//
// The miner is levelwise à la TANE/Apriori on the attribute lattice:
// a candidate attribute set is pruned when a superset of an already
// minimal key would be produced, and validated by checking that no two
// distinct supported entities agree (under the same semantics the
// matcher uses).
package discover

import (
	"fmt"
	"sort"
	"strings"

	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/pattern"
)

// Options bounds the search.
type Options struct {
	// MaxAttrs bounds the number of triples adjacent to x in a mined
	// key (default 3).
	MaxAttrs int
	// MinSupport is the minimum fraction of entities of the type that
	// must have all attributes of the key for it to be proposed
	// (default 0.5): a key nobody's data carries is useless.
	MinSupport float64
	// AllowRecursive also proposes keys with one entity variable.
	AllowRecursive bool
}

func (o Options) maxAttrs() int {
	if o.MaxAttrs <= 0 {
		return 3
	}
	return o.MaxAttrs
}

func (o Options) minSupport() float64 {
	if o.MinSupport <= 0 {
		return 0.5
	}
	return o.MinSupport
}

// Candidate is a proposed key with its quality measures.
type Candidate struct {
	// Key is the mined key, named D<n>_<type>.
	Key pattern.Named
	// Support is the fraction of entities of the type matching the
	// pattern at least once.
	Support float64
	// Recursive mirrors pattern.IsRecursive.
	Recursive bool
}

// attribute is one candidate triple adjacent to x.
type attribute struct {
	pred     graph.PredID
	outgoing bool
	// kind of the far end: value variable, wildcard type, or entity
	// variable type.
	kind pattern.NodeKind
	typ  graph.TypeID
}

func (a attribute) String(g *graph.Graph) string {
	dir := "->"
	if !a.outgoing {
		dir = "<-"
	}
	switch a.kind {
	case pattern.ValueVar:
		return fmt.Sprintf("%s%s*", g.PredName(a.pred), dir)
	case pattern.Wildcard:
		return fmt.Sprintf("%s%s_:%s", g.PredName(a.pred), dir, g.TypeName(a.typ))
	default:
		return fmt.Sprintf("%s%s$:%s", g.PredName(a.pred), dir, g.TypeName(a.typ))
	}
}

// Discover mines keys for the given entity type.
func Discover(g *graph.Graph, typeName string, opts Options) ([]Candidate, error) {
	tid, ok := g.TypeByName(typeName)
	if !ok {
		return nil, fmt.Errorf("discover: no entities of type %q", typeName)
	}
	entities := g.EntitiesOfType(tid)
	if len(entities) < 2 {
		return nil, fmt.Errorf("discover: type %q has fewer than two entities; every pattern is trivially a key", typeName)
	}

	attrs := collectAttributes(g, entities, tid, opts)
	if len(attrs) == 0 {
		return nil, fmt.Errorf("discover: no attributes with sufficient support for type %q", typeName)
	}

	// Levelwise search over attribute subsets. minimal keeps found keys
	// so supersets are pruned (a superset of a key is a key but not a
	// minimal one).
	var out []Candidate
	var minimal [][]int
	n := 0
	var frontier [][]int
	for i := range attrs {
		frontier = append(frontier, []int{i})
	}
	for level := 1; level <= opts.maxAttrs() && len(frontier) > 0; level++ {
		var next [][]int
		for _, set := range frontier {
			if coversMinimal(set, minimal) {
				continue
			}
			support, unique := validate(g, entities, attrs, set)
			if support < opts.minSupport() {
				continue // supersets only lose support: prune
			}
			if unique {
				n++
				cand, err := buildKey(g, typeName, attrs, set, n)
				if err != nil {
					return nil, err
				}
				out = append(out, Candidate{
					Key:       cand,
					Support:   support,
					Recursive: cand.IsRecursive(),
				})
				minimal = append(minimal, set)
				continue
			}
			// Extend with attributes after the last index to avoid
			// revisiting permutations.
			for j := set[len(set)-1] + 1; j < len(attrs); j++ {
				if attrs[j].kind == pattern.EntityVar && hasEntityVar(attrs, set) {
					continue // at most one entity variable per mined key
				}
				next = append(next, append(append([]int{}, set...), j))
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Key.Triples) != len(out[j].Key.Triples) {
			return len(out[i].Key.Triples) < len(out[j].Key.Triples)
		}
		return out[i].Support > out[j].Support
	})
	return out, nil
}

func hasEntityVar(attrs []attribute, set []int) bool {
	for _, i := range set {
		if attrs[i].kind == pattern.EntityVar {
			return true
		}
	}
	return false
}

func coversMinimal(set []int, minimal [][]int) bool {
	for _, m := range minimal {
		if isSubset(m, set) {
			return true
		}
	}
	return false
}

func isSubset(sub, super []int) bool {
	j := 0
	for _, s := range super {
		if j < len(sub) && sub[j] == s {
			j++
		}
	}
	return j == len(sub)
}

// collectAttributes enumerates the candidate triples adjacent to x:
// every (pred, direction) pair observed on entities of the type, once
// as a value variable (if values occur), once as a wildcard and — when
// recursion is allowed — once as an entity variable (if typed entities
// occur, taking the majority neighbor type).
func collectAttributes(g *graph.Graph, entities []graph.NodeID, tid graph.TypeID, opts Options) []attribute {
	type slot struct {
		values int
		types  map[graph.TypeID]int
	}
	outgoing := make(map[graph.PredID]*slot)
	incoming := make(map[graph.PredID]*slot)
	record := func(m map[graph.PredID]*slot, p graph.PredID, to graph.NodeID) {
		s := m[p]
		if s == nil {
			s = &slot{types: make(map[graph.TypeID]int)}
			m[p] = s
		}
		if g.IsValue(to) {
			s.values++
		} else {
			s.types[g.TypeOf(to)]++
		}
	}
	for _, e := range entities {
		for _, ed := range g.Out(e) {
			record(outgoing, ed.Pred, ed.To)
		}
		for _, ed := range g.In(e) {
			record(incoming, ed.Pred, ed.To)
		}
	}
	minCount := int(opts.minSupport() * float64(len(entities)))
	var attrs []attribute
	addFrom := func(m map[graph.PredID]*slot, out bool) {
		preds := make([]graph.PredID, 0, len(m))
		for p := range m {
			preds = append(preds, p)
		}
		sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
		for _, p := range preds {
			s := m[p]
			if out && s.values >= minCount && s.values > 0 {
				attrs = append(attrs, attribute{pred: p, outgoing: true, kind: pattern.ValueVar})
			}
			// Majority entity neighbor type.
			bestT, bestN := graph.TypeID(0), 0
			for t, c := range s.types {
				if c > bestN || (c == bestN && t < bestT) {
					bestT, bestN = t, c
				}
			}
			if bestN >= minCount && bestN > 0 {
				attrs = append(attrs, attribute{pred: p, outgoing: out, kind: pattern.Wildcard, typ: bestT})
				if opts.AllowRecursive {
					attrs = append(attrs, attribute{pred: p, outgoing: out, kind: pattern.EntityVar, typ: bestT})
				}
			}
		}
	}
	addFrom(outgoing, true)
	addFrom(incoming, false)
	return attrs
}

// signature computes, for one entity, the set of agreement signatures
// the attribute set induces: for value attributes the value node, for
// wildcards the presence marker, for entity variables the neighbor
// entity (node identity stands in for "identified" — under Eq0 this is
// exactly the key-satisfaction check of §2.2). Multi-valued attributes
// make an entity carry several signatures; two entities agreeing on any
// signature pair violate uniqueness, which matches the existential
// match semantics.
func signatures(g *graph.Graph, e graph.NodeID, attrs []attribute, set []int) []string {
	parts := make([][]string, len(set))
	for i, ai := range set {
		a := attrs[ai]
		edges := g.Out(e)
		if !a.outgoing {
			edges = g.In(e)
		}
		for _, ed := range edges {
			if ed.Pred != a.pred {
				continue
			}
			switch a.kind {
			case pattern.ValueVar:
				if g.IsValue(ed.To) {
					parts[i] = append(parts[i], "v"+g.Label(ed.To))
				}
			case pattern.Wildcard:
				if g.IsEntityOfType(ed.To, a.typ) {
					// Existence only: one marker regardless of which.
					parts[i] = []string{"w"}
				}
			case pattern.EntityVar:
				if g.IsEntityOfType(ed.To, a.typ) {
					parts[i] = append(parts[i], fmt.Sprintf("e%d", ed.To))
				}
			}
		}
		if len(parts[i]) == 0 {
			return nil // unsupported: entity lacks this attribute
		}
	}
	// Cartesian product of per-attribute alternatives.
	sigs := []string{""}
	for _, alts := range parts {
		var next []string
		for _, s := range sigs {
			for _, alt := range alts {
				next = append(next, s+"|"+alt)
			}
		}
		sigs = next
	}
	return sigs
}

// validate computes the support of the attribute set and whether it
// uniquely identifies the supported entities.
func validate(g *graph.Graph, entities []graph.NodeID, attrs []attribute, set []int) (support float64, unique bool) {
	seen := make(map[string]graph.NodeID)
	supported := 0
	unique = true
	for _, e := range entities {
		sigs := signatures(g, e, attrs, set)
		if sigs == nil {
			continue
		}
		supported++
		for _, s := range sigs {
			if prev, dup := seen[s]; dup && prev != e {
				unique = false
			}
			seen[s] = e
		}
	}
	return float64(supported) / float64(len(entities)), unique
}

// buildKey renders the attribute set as a DSL key and parses it back,
// which also validates it.
func buildKey(g *graph.Graph, typeName string, attrs []attribute, set []int, n int) (pattern.Named, error) {
	var b strings.Builder
	name := fmt.Sprintf("D%d_%s", n, typeName)
	fmt.Fprintf(&b, "key %s for %s {\n", name, typeName)
	vi := 0
	for _, ai := range set {
		a := attrs[ai]
		var tok string
		switch a.kind {
		case pattern.ValueVar:
			vi++
			tok = fmt.Sprintf("v%d*", vi)
		case pattern.Wildcard:
			tok = "_:" + g.TypeName(a.typ)
		case pattern.EntityVar:
			tok = "$y:" + g.TypeName(a.typ)
		}
		if a.outgoing {
			fmt.Fprintf(&b, "    x -%s-> %s\n", g.PredName(a.pred), tok)
		} else {
			fmt.Fprintf(&b, "    %s -%s-> x\n", tok, g.PredName(a.pred))
		}
	}
	b.WriteString("}\n")
	ks, err := pattern.ParseString(b.String())
	if err != nil {
		return pattern.Named{}, fmt.Errorf("discover: generated key invalid: %v", err)
	}
	return ks[0], nil
}

// AsKeySet bundles discovered candidates into a key set usable by the
// matching engines.
func AsKeySet(cands []Candidate) (*keys.Set, error) {
	named := make([]pattern.Named, 0, len(cands))
	for _, c := range cands {
		named = append(named, c.Key)
	}
	return keys.FromNamed(named)
}
