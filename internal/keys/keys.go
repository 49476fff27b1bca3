// Package keys implements key sets Σ for "Keys for Graphs" (Fan et al.,
// PVLDB 2015): named keys grouped per entity type, with the derived
// metadata the algorithms of §4–§5 need — per-type maximum radius d for
// d-neighbor construction, the type-dependency graph induced by
// recursive keys, and the longest dependency chain length c used as a
// workload parameter in §6.
package keys

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"graphkeys/internal/pattern"
)

// Key is one key for entities of type Q.Type(). Radius and Recursive are
// cached from the pattern at construction time.
type Key struct {
	Name string
	*pattern.Pattern
	Radius    int
	Recursive bool
}

// Set is a set Σ of keys. It is immutable after construction and safe
// for concurrent readers.
type Set struct {
	keys   []*Key
	byType map[string][]*Key
	byName map[string]*Key
}

// FromNamed builds a Set from parsed patterns. Key names must be unique;
// every pattern must validate.
func FromNamed(named []pattern.Named) (*Set, error) {
	s := &Set{
		byType: make(map[string][]*Key),
		byName: make(map[string]*Key),
	}
	for _, n := range named {
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("keys: %s: %v", n.Name, err)
		}
		if _, dup := s.byName[n.Name]; dup {
			return nil, fmt.Errorf("keys: duplicate key name %q", n.Name)
		}
		k := &Key{
			Name:      n.Name,
			Pattern:   n.Pattern,
			Radius:    n.Radius(),
			Recursive: n.IsRecursive(),
		}
		s.keys = append(s.keys, k)
		s.byName[k.Name] = k
		s.byType[k.Type()] = append(s.byType[k.Type()], k)
	}
	// Within each type, order keys value-based first and then by size.
	// EvalMR tries keys in this order and stops at the first success
	// (early termination), so cheap, non-recursive keys go first. This is
	// the practical payoff of sharing work across the keys of a type
	// (cf. the common-substructure optimization of ref [30] in §4.1).
	for _, ks := range s.byType {
		sort.SliceStable(ks, func(i, j int) bool {
			if ks[i].Recursive != ks[j].Recursive {
				return !ks[i].Recursive
			}
			return ks[i].Size() < ks[j].Size()
		})
	}
	return s, nil
}

// Parse reads keys in the pattern DSL and builds a Set.
func Parse(r io.Reader) (*Set, error) {
	named, err := pattern.Parse(r)
	if err != nil {
		return nil, err
	}
	if len(named) == 0 {
		return nil, fmt.Errorf("keys: no keys in input")
	}
	return FromNamed(named)
}

// ParseString is Parse over a string.
func ParseString(s string) (*Set, error) { return Parse(strings.NewReader(s)) }

// Keys returns all keys in input order (before per-type reordering).
func (s *Set) Keys() []*Key { return s.keys }

// ByName returns the key with the given name.
func (s *Set) ByName(name string) (*Key, bool) {
	k, ok := s.byName[name]
	return k, ok
}

// ForType returns the keys defined on entities of the given type, cheap
// keys first.
func (s *Set) ForType(typeName string) []*Key { return s.byType[typeName] }

// Types returns the entity types some key is defined on, sorted.
func (s *Set) Types() []string {
	out := make([]string, 0, len(s.byType))
	for t := range s.byType {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Cardinality returns ||Σ||, the number of keys.
func (s *Set) Cardinality() int { return len(s.keys) }

// TotalSize returns |Σ| = Σ_{Q∈Σ} |Q|, the total number of pattern
// triples.
func (s *Set) TotalSize() int {
	n := 0
	for _, k := range s.keys {
		n += k.Size()
	}
	return n
}

// MaxRadiusForType returns the maximum radius d over the keys defined on
// the given type (§4.1: the bound for the d-neighbor G^d of entities of
// that type). It returns 0 if no key is defined on the type.
func (s *Set) MaxRadiusForType(typeName string) int {
	d := 0
	for _, k := range s.byType[typeName] {
		if k.Radius > d {
			d = k.Radius
		}
	}
	return d
}

// MaxRadius returns the maximum radius over all keys in Σ.
func (s *Set) MaxRadius() int {
	d := 0
	for _, k := range s.keys {
		if k.Radius > d {
			d = k.Radius
		}
	}
	return d
}

// HasValueBasedKeyForType reports whether some non-recursive key is
// defined on the type. The entity-dependency optimization of §4.2 seeds
// the first round with pairs whose types have value-based keys only.
func (s *Set) HasValueBasedKeyForType(typeName string) bool {
	for _, k := range s.byType[typeName] {
		if !k.Recursive {
			return true
		}
	}
	return false
}

// DependencyEdges returns the type-dependency relation induced by
// recursive keys: τ -> τ' iff some key for τ has an entity variable of
// type τ'. Identifying a pair of type τ may require having identified a
// pair of type τ' first.
func (s *Set) DependencyEdges() map[string][]string {
	dep := make(map[string][]string)
	for t, ks := range s.byType {
		seen := make(map[string]bool)
		for _, k := range ks {
			for _, t2 := range k.EntityVarTypes() {
				if !seen[t2] {
					seen[t2] = true
					dep[t] = append(dep[t], t2)
				}
			}
		}
		sort.Strings(dep[t])
	}
	return dep
}

// LongestChain computes c, the length of the longest dependency chain in
// Σ (§6 workload parameter): the longest path in the type-dependency
// graph, counted in edges. If the dependency graph is cyclic (mutually
// recursive keys, like Q1/Q3 of the paper), cyclic is true and the chain
// length counts each strongly connected component once, weighted by its
// size — the value is then a lower bound on the serialization depth.
//
// A component of k types counts k−1 steps and each edge leaving it one
// more, so c is the most types on any chain of components, less one.
// The graph has one vertex per type, a few hundred at most, so the
// components come from plain reachability.
func (s *Set) LongestChain() (c int, cyclic bool) {
	idx := make(map[string]int)
	for t := range s.byType {
		idx[t] = len(idx)
	}
	dep := s.DependencyEdges()
	for _, ds := range dep {
		for _, d := range ds {
			if _, ok := idx[d]; !ok {
				idx[d] = len(idx)
			}
		}
	}
	n := len(idx)
	adj := make([][]int, n)
	for t, ds := range dep {
		for _, d := range ds {
			adj[idx[t]] = append(adj[idx[t]], idx[d])
		}
	}
	// reach[v][w]: a path of one or more edges leads from v to w.
	reach := make([][]bool, n)
	for v := range reach {
		reach[v] = make([]bool, n)
		for stack := append([]int(nil), adj[v]...); len(stack) > 0; {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !reach[v][w] {
				reach[v][w] = true
				stack = append(stack, adj[w]...)
			}
		}
		cyclic = cyclic || reach[v][v]
	}
	// types[v] is the most types on a chain of components from v's
	// down: v's component, then the heaviest chain below it.
	types := make([]int, n)
	var chain func(v int) int
	chain = func(v int) int {
		if types[v] == 0 {
			size, below := 1, 0
			for w := range n {
				switch {
				case w == v:
				case reach[v][w] && reach[w][v]:
					size++
				case reach[v][w]:
					below = max(below, chain(w))
				}
			}
			types[v] = size + below
		}
		return types[v]
	}
	for v := range n {
		c = max(c, chain(v)-1)
	}
	return c, cyclic
}

// Format renders the whole set back into the DSL.
func (s *Set) Format() string {
	var b strings.Builder
	for i, k := range s.keys {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(pattern.Format(pattern.Named{Name: k.Name, Pattern: k.Pattern}))
	}
	return b.String()
}
