package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// inputSpec sizes one generated input.
type inputSpec struct {
	flavor  string  // "dbpedia" or "google"
	scale   float64 // gen.FlavorConfig.Scale
	perType int     // entities per planted chain type
}

type valueTriple struct{ s, p, v string }

// flipOp is one single-op delta of the write streams: remove one value
// triple of a chain entity, or put it back.
type flipOp struct {
	valueTriple
	add bool
}

// sameOp is one GET /same with the answer the seed graph gives. Ops on
// chain entities are only asserted while no writer runs.
type sameOp struct {
	a, b  string
	want  bool
	chain bool
}

// entOp is one GET /entities on an immutable attribute, with the exact
// subject set.
type entOp struct {
	p, v string
	want []string
}

// input is everything one run derives from (spec, seed): the program
// under test only ever sees graphText, keysText and the op streams.
type input struct {
	spec      inputSpec
	seed      int64
	graphText []byte
	keysText  string
	expected  [][2]string // planted pairs, canonical and sorted
	flips     []valueTriple
	sames     []sameOp
	ents      []entOp
	triples   int
	entities  int
}

const readStreamLen = 1 << 15

func canonPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func sortPairs(ps [][2]string) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

func buildInput(spec inputSpec, seed int64) (*input, error) {
	w, err := genWorkload(spec, seed)
	if err != nil {
		return nil, err
	}
	in := &input{spec: spec, seed: seed, triples: w.Graph.NumTriples(), entities: w.Graph.NumEntities()}
	var entities []string
	var values []valueTriple
	in.graphText, in.keysText, in.expected, entities, values, err = describeWorkload(w)
	if err != nil {
		return nil, err
	}
	sortPairs(in.expected)
	rng := rand.New(rand.NewSource(seed*7919 + 17))

	// Write stream: every value triple of a chain entity, in seeded
	// order. Each has its own subject, so two flips never touch the
	// same entity.
	var baseValues []valueTriple
	for _, vt := range values {
		if strings.HasPrefix(vt.s, chainPrefix) {
			in.flips = append(in.flips, vt)
		} else {
			baseValues = append(baseValues, vt)
		}
	}
	rng.Shuffle(len(in.flips), func(i, j int) { in.flips[i], in.flips[j] = in.flips[j], in.flips[i] })
	if len(in.flips) == 0 || len(baseValues) == 0 {
		return nil, fmt.Errorf("input %+v has no chain or no base value triples", spec)
	}

	// Read stream: half on the immutable base graph, half on the chain
	// entities; within each half, half planted pairs (same) and half
	// random pairs (almost always different).
	class := make(map[string]int)
	for i, pr := range in.expected {
		for _, e := range pr {
			if _, ok := class[e]; !ok {
				class[e] = i
			}
		}
		// Planted pairs are disjoint; merge defensively anyway.
		class[pr[1]] = class[pr[0]]
	}
	var pools [2]struct {
		pairs [][2]string
		ents  []string
	}
	for _, pr := range in.expected {
		k := 0
		if strings.HasPrefix(pr[0], chainPrefix) {
			k = 1
		}
		pools[k].pairs = append(pools[k].pairs, pr)
	}
	for _, e := range entities {
		k := 0
		if strings.HasPrefix(e, chainPrefix) {
			k = 1
		}
		pools[k].ents = append(pools[k].ents, e)
	}
	for k := range pools {
		if len(pools[k].pairs) == 0 || len(pools[k].ents) < 2 {
			return nil, fmt.Errorf("input %+v: read pool %d is empty", spec, k)
		}
	}
	for i := 0; i < readStreamLen; i++ {
		pool := pools[i%2]
		op := sameOp{chain: i%2 == 1}
		if i%4 < 2 {
			pr := pool.pairs[rng.Intn(len(pool.pairs))]
			op.a, op.b = pr[0], pr[1]
		} else {
			op.a, op.b = pool.ents[rng.Intn(len(pool.ents))], pool.ents[rng.Intn(len(pool.ents))]
		}
		ca, okA := class[op.a]
		cb, okB := class[op.b]
		op.want = op.a == op.b || (okA && okB && ca == cb)
		in.sames = append(in.sames, op)
	}
	subjects := make(map[[2]string][]string)
	for _, vt := range baseValues {
		k := [2]string{vt.p, vt.v}
		subjects[k] = append(subjects[k], vt.s)
	}
	for i := 0; i < readStreamLen/4; i++ {
		vt := baseValues[rng.Intn(len(baseValues))]
		want := append([]string(nil), subjects[[2]string{vt.p, vt.v}]...)
		sort.Strings(want)
		in.ents = append(in.ents, entOp{p: vt.p, v: vt.v, want: want})
	}
	return in, nil
}

// flipStream returns n flips for one of `producers` producers: it
// cycles over the producer's own share of the chain triples, removing
// each on even passes and re-adding it on odd ones, so two flips of
// one triple are a whole share apart.
func (in *input) flipStream(producer, producers, n int) []flipOp {
	var own []valueTriple
	for i := producer; i < len(in.flips); i += producers {
		own = append(own, in.flips[i])
	}
	out := make([]flipOp, n)
	for i := range out {
		out[i] = flipOp{valueTriple: own[i%len(own)], add: (i/len(own))%2 == 1}
	}
	return out
}
