package chase

import (
	"fmt"
	"sort"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// This file materializes proof graphs, the witness notion behind the NP
// upper bound of Theorem 2: a DAG whose nodes are chase steps such that
// every step's prerequisites are justified by earlier steps (or by
// transitivity over them), ending in the target pair. Proofs are
// extracted from a chase Result and can be re-verified independently in
// polynomial time (modulo the per-step isomorphism check, which is
// bounded by the key size).

// Proof is a verifiable justification that (G, Σ) ⊨ Target.
type Proof struct {
	Target eqrel.Pair
	// Steps is a topologically ordered subset of the chase steps: every
	// step's Requires pairs are connected by earlier steps.
	Steps []Step
}

// Prove extracts a proof for (e1, e2) from the result. It fails if the
// pair was not identified.
func (r *Result) Prove(e1, e2 graph.NodeID) (*Proof, error) {
	target := eqrel.MakePair(int32(e1), int32(e2))
	if target.A == target.B {
		return &Proof{Target: target}, nil
	}
	if !r.Identified(e1, e2) {
		return nil, fmt.Errorf("chase: (%d, %d) is not identified; no proof exists", e1, e2)
	}
	idxs, err := ProveIndices(r.Steps, target)
	if err != nil {
		return nil, err
	}
	proof := &Proof{Target: target}
	for _, i := range idxs {
		proof.Steps = append(proof.Steps, r.Steps[i])
	}
	return proof, nil
}

// ProveIndices extracts, from any valid chasing sequence, the indices
// of the steps that form a witness chain for the target pair: a
// topologically ordered (by index) subset in which every step's
// Requires pairs are connected by earlier steps, ending in a step path
// connecting the target. It errors when no step path connects the
// pair — the sequence does not identify it. The incremental engine's
// explain surface walks its live step log through here.
func ProveIndices(steps []Step, target eqrel.Pair) ([]int, error) {
	if target.A == target.B {
		return nil, nil
	}
	// Step graph: chase steps are undirected edges between entities;
	// a pair (u, v) in Eq is justified by any u–v path.
	adj := make(map[int32][]int) // entity -> incident step indices
	for i, st := range steps {
		adj[st.Pair.A] = append(adj[st.Pair.A], i)
		adj[st.Pair.B] = append(adj[st.Pair.B], i)
	}
	needed := make(map[int]bool) // step indices in the proof
	var justify func(p eqrel.Pair) error
	justify = func(p eqrel.Pair) error {
		if p.A == p.B {
			return nil
		}
		path, err := stepPath(adj, steps, p)
		if err != nil {
			return err
		}
		for _, si := range path {
			if needed[si] {
				continue
			}
			needed[si] = true
			for _, req := range steps[si].Requires {
				if err := justify(req); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := justify(target); err != nil {
		return nil, err
	}
	idxs := make([]int, 0, len(needed))
	for i := range needed {
		idxs = append(idxs, i)
	}
	// Chase order is a valid topological order: a step's prerequisites
	// were in Eq before it fired, hence justified by earlier steps.
	sort.Ints(idxs)
	return idxs, nil
}

// stepPath finds a path of chase steps connecting p.A to p.B via BFS
// over the step graph and returns the step indices along it.
func stepPath(adj map[int32][]int, steps []Step, p eqrel.Pair) ([]int, error) {
	type visit struct {
		via  int // step index taken to reach the node, -1 at the source
		prev int32
	}
	seen := map[int32]visit{p.A: {via: -1}}
	queue := []int32{p.A}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == p.B {
			var path []int
			for u != p.A {
				v := seen[u]
				path = append(path, v.via)
				u = v.prev
			}
			return path, nil
		}
		for _, si := range adj[u] {
			st := steps[si]
			next := st.Pair.A
			if next == u {
				next = st.Pair.B
			}
			if _, ok := seen[next]; !ok {
				seen[next] = visit{via: si, prev: u}
				queue = append(queue, next)
			}
		}
	}
	return nil, fmt.Errorf("chase: no step path connects (%d, %d); result is inconsistent", p.A, p.B)
}

// Verify replays the proof against the graph and key set from scratch:
// starting at the identity relation, it checks that every step's
// prerequisites already hold, that the step's key indeed identifies the
// step's pair under the partial relation, and that the target pair ends
// up identified. A nil error means the proof is valid.
func (p *Proof) Verify(g *graph.Graph, set *keys.Set, opts match.Options) error {
	m, err := match.New(g, set, opts)
	if err != nil {
		return err
	}
	eq := eqrel.New(g.NumNodes())
	for i, st := range p.Steps {
		for _, req := range st.Requires {
			if !eq.Same(req.A, req.B) {
				return fmt.Errorf("chase: proof step %d requires (%d, %d) which is not yet proven", i, req.A, req.B)
			}
		}
		k, ok := set.ByName(st.Key)
		if !ok {
			return fmt.Errorf("chase: proof step %d uses unknown key %q", i, st.Key)
		}
		ck, err := match.Compile(g, k)
		if err != nil {
			return err
		}
		e1, e2 := graph.NodeID(st.Pair.A), graph.NodeID(st.Pair.B)
		got, _ := m.IdentifiedByKey(ck, e1, e2, nil, nil, eq)
		if !got {
			return fmt.Errorf("chase: proof step %d: key %s does not identify (%d, %d) at this point", i, st.Key, e1, e2)
		}
		eq.Union(st.Pair.A, st.Pair.B)
	}
	if p.Target.A != p.Target.B && !eq.Same(p.Target.A, p.Target.B) {
		return fmt.Errorf("chase: proof steps do not connect the target pair (%d, %d)", p.Target.A, p.Target.B)
	}
	return nil
}
