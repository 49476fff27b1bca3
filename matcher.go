package graphkeys

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/inc"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
	"graphkeys/internal/wal"
)

// This file is the public surface of the incremental entity-matching
// subsystem (internal/inc): a stateful Matcher that keeps chase(G, Σ)
// up to date while the graph mutates, instead of recomputing the
// fixpoint from scratch per change the way Match does.

// Delta is a batch of graph mutations to be applied through a Matcher:
// entity additions plus triple additions and removals, in order.
// The zero value is an empty batch; builder methods chain.
type Delta struct {
	d graph.Delta
}

// NewDelta returns an empty delta.
func NewDelta() *Delta { return &Delta{} }

// AddEntity ensures an entity with the given ID and type exists.
func (d *Delta) AddEntity(id EntityID, typeName string) *Delta {
	d.d.AddEntity(id, typeName)
	return d
}

// AddEntityTriple inserts (subject, predicate, object) between two
// entities. Both must exist or be added earlier in the same delta.
func (d *Delta) AddEntityTriple(subject EntityID, predicate string, object EntityID) *Delta {
	d.d.AddTriple(subject, predicate, object)
	return d
}

// AddValueTriple inserts (subject, predicate, value) with a literal
// object.
func (d *Delta) AddValueTriple(subject EntityID, predicate string, value string) *Delta {
	d.d.AddValueTriple(subject, predicate, value)
	return d
}

// RemoveEntityTriple deletes (subject, predicate, object) between two
// entities; absent triples are ignored.
func (d *Delta) RemoveEntityTriple(subject EntityID, predicate string, object EntityID) *Delta {
	d.d.RemoveTriple(subject, predicate, object)
	return d
}

// RemoveValueTriple deletes (subject, predicate, value); absent
// triples are ignored.
func (d *Delta) RemoveValueTriple(subject EntityID, predicate string, value string) *Delta {
	d.d.RemoveValueTriple(subject, predicate, value)
	return d
}

// RemoveEntity removes the entity with the given ID: the removal
// expands to deleting every triple the entity participates in (as
// subject or object) and then tombstones the node. Absent entities
// are ignored. Later operations of the same delta may re-add the ID,
// which creates a fresh entity.
func (d *Delta) RemoveEntity(id EntityID) *Delta {
	d.d.RemoveEntity(id)
	return d
}

// Len reports the number of operations in the delta.
func (d *Delta) Len() int { return d.d.Len() }

// Matcher maintains chase(G, Σ) incrementally: it computes the full
// fixpoint once at construction and then repairs it per Delta, using
// the proof graphs of the chase as provenance (removals invalidate
// only identifications whose proofs touch a removed triple) and d-hop
// locality (additions re-chase only the affected region).
//
// After NewMatcher the graph must be mutated only through Apply. A
// Matcher is safe for concurrent use: Apply serializes against other
// Applies and against the read methods (Same, Result, LastStats), so
// readers always observe a graph and fixpoint from the same delta
// boundary. Concurrent reads run in parallel — against the underlying
// shard-partitioned graph as well, whose per-shard locks the readers
// only touch shard-locally.
type Matcher struct {
	// mu serializes Apply (writer) against the fixpoint readers. Raw
	// graph reads through Graph() need no lock to be race-free (the
	// sharded store guarantees that), but the Matcher's own accessors
	// take the read lock so graph and match state stay consistent.
	mu      sync.RWMutex
	g       *Graph
	eng     *inc.Engine
	workers int
	store   *wal.Store // non-nil for durable matchers (OpenMatcher, SeedMatcher)

	// Observability (see observe.go): every Matcher carries its own
	// registry and tracer, snapshotted by Metrics and served by
	// MetricsHandler.
	reg         *obs.Registry
	trace       *obs.Tracer
	obApply     *obs.Histogram
	obBatch     *obs.Histogram
	obBatchSize *obs.Histogram
	// obEng and obMatch are this matcher's handles into the execution
	// substrate and candidate pipeline, threaded down through
	// match.Options — per-matcher, so coexisting matchers never share
	// counters (see observe.go registerObs).
	obEng   *engine.Obs
	obMatch *match.Obs

	// onApply, when set, is called under m.mu at the end of every
	// Apply/ApplyBatch that changed the pair set (see SetOnApply).
	onApply func(ApplyEvent)
}

// ApplyEvent describes the merge/split effect of one Apply or
// ApplyBatch: the pairs that appeared and disappeared, tagged with the
// matcher's sequence number after the call (the WAL sequence for
// durable matchers, the repair generation otherwise) so subscribers
// can resume from a known point.
type ApplyEvent struct {
	Seq     uint64
	Added   []Pair
	Removed []Pair
}

// SetOnApply installs a hook receiving an ApplyEvent for every
// Apply/ApplyBatch that changed the pair set. The hook runs under the
// matcher's write lock — it must not call back into the Matcher and
// should hand the event off quickly (e.g. into a channel). Install it
// before the matcher is used concurrently; a nil fn removes the hook.
func (m *Matcher) SetOnApply(fn func(ApplyEvent)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onApply = fn
}

// Seq returns the matcher's current sequence number: the WAL sequence
// of the last logged delta for durable matchers, or the repair
// generation (maintenance passes run so far) for in-memory ones. It
// only moves forward, and every ApplyEvent carries the value current
// at its delta boundary.
func (m *Matcher) Seq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.seqLocked()
}

func (m *Matcher) seqLocked() uint64 {
	if m.store != nil {
		return m.store.Seq()
	}
	return m.eng.Seq()
}

// fireLocked invokes the onApply hook if the pair set changed. Caller
// holds m.mu.
func (m *Matcher) fireLocked(added, removed []Pair) {
	if m.onApply == nil || (len(added) == 0 && len(removed) == 0) {
		return
	}
	m.onApply(ApplyEvent{Seq: m.seqLocked(), Added: added, Removed: removed})
}

// NewMatcher computes chase(G, Σ) with the sequential chase and
// returns a Matcher maintaining it. Options.Engine is ignored: the
// incremental result always equals the sequential chase (and hence,
// by Church–Rosser, every engine).
func NewMatcher(g *Graph, ks *KeySet, opts Options) (*Matcher, error) {
	if g == nil || ks == nil {
		return nil, fmt.Errorf("graphkeys: NewMatcher requires a graph and a key set")
	}
	m := &Matcher{g: g, workers: opts.Workers}
	m.registerObs()
	eng, err := inc.New(g.g, ks.set, inc.Options{
		Match:       match.Options{ValueEq: opts.ValueEq, Obs: m.obMatch, Eng: m.obEng},
		Parallelism: opts.parallelism(),
		Obs:         inc.RegisterObs(m.reg),
		Trace:       m.trace, //emlint:ignore obshandle forwarded as wiring, not dereferenced; Tracer methods are nil-safe
	})
	if err != nil {
		return nil, err
	}
	m.eng = eng
	return m, nil
}

// Apply mutates the graph by the delta and repairs the fixpoint,
// returning the matches that appeared and disappeared. The delta is
// applied atomically: on error neither the graph nor the match state
// changes.
func (m *Matcher) Apply(d *Delta) (added, removed []Pair, err error) {
	if d == nil {
		return nil, nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t0 := m.obApply.Start()
	addedPairs, removedPairs, err := m.eng.Apply(&d.d)
	m.obApply.ObserveSince(t0)
	if err != nil {
		return nil, nil, err
	}
	added, removed = m.toMatches(addedPairs), m.toMatches(removedPairs)
	m.fireLocked(added, removed)
	return added, removed, nil
}

// ApplyBatch mutates the graph by every delta and repairs the fixpoint
// with one maintenance pass over the merged changes, instead of one
// per delta the way repeated Apply calls would. The graph mutations of
// deltas touching disjoint store shards run concurrently (Options
// .Workers writers); overlapping deltas serialize inside the store.
//
// Each delta stays individually atomic, but the batch is not: deltas
// that fail validation are skipped, the rest apply, and their joined
// errors return alongside the (still correct) repair result. Deltas in
// one batch should be independent of each other — when two conflict,
// their serialization order is unspecified.
func (m *Matcher) ApplyBatch(ds []*Delta) (added, removed []Pair, err error) {
	added, removed, _, err = m.applyBatch(ds)
	return added, removed, err
}

// applyBatch is ApplyBatch plus the count of deltas that actually
// applied (the batch's partial semantics skip deltas failing
// validation) — the Writer's failure accounting needs the split.
func (m *Matcher) applyBatch(ds []*Delta) (added, removed []Pair, applied int, err error) {
	if len(ds) == 0 {
		return nil, nil, 0, nil
	}
	gds := make([]*graph.Delta, len(ds))
	for i, d := range ds {
		if d != nil {
			gds[i] = &d.d
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obBatchSize.Observe(int64(len(ds)))
	t0 := m.obBatch.Start()
	addedPairs, removedPairs, err := m.eng.ApplyAll(gds, engine.Workers(m.workers))
	m.obBatch.ObserveSince(t0)
	applied = m.eng.LastStats().Merged
	added, removed = m.toMatches(addedPairs), m.toMatches(removedPairs)
	m.fireLocked(added, removed)
	return added, removed, applied, err
}

// Result materializes the current chase(G, Σ) as a Result, identical
// to what Match would return on the current graph.
func (m *Matcher) Result() *Result {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return buildResult(m.g, m.eng.Pairs(), Chase)
}

// Same reports whether the two entities are currently identified.
// Unknown entities are never identified with anything.
func (m *Matcher) Same(a, b EntityID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	na, ok := m.g.g.Entity(a)
	if !ok {
		return false
	}
	nb, ok := m.g.g.Entity(b)
	if !ok {
		return false
	}
	if na == nb {
		return true
	}
	// Eq().Same performs path compression, so it needs the exclusive
	// view the read lock provides against Apply; concurrent Same
	// callers share a snapshot-free non-compressing reader instead.
	return m.eng.Eq().Reader().Same(int32(na), int32(nb))
}

// Canonical returns the canonical entity of a's equivalence class —
// the class representative of the union-find maintained by the chase.
// Two entities are identified exactly when their canonical entities
// coincide, and the representative is stable between Applies, so it
// serves as the class's lookup key. The second result is false when a
// is unknown.
func (m *Matcher) Canonical(a EntityID) (EntityID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	na, ok := m.g.g.Entity(a)
	if !ok {
		return "", false
	}
	// The non-compressing reader keeps this safe for any number of
	// concurrent callers under the read lock (Eq.Find compresses and
	// would race).
	root := m.eng.Eq().Reader().Find(int32(na))
	return m.g.g.Label(graph.NodeID(root)), true
}

// EntitiesWith returns the entities with the attribute
// (predicate, value) — the subjects of triples (e, predicate, value)
// with a literal object — in ascending internal order (deterministic
// for a given graph history). It reads the inverted value index, so
// the lookup costs one posting list, not a graph sweep. Unknown
// predicates or values yield nil.
func (m *Matcher) EntitiesWith(predicate, value string) []EntityID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, ok := m.g.g.PredByName(predicate)
	if !ok {
		return nil
	}
	v, ok := m.g.g.Value(value)
	if !ok {
		return nil
	}
	subs := m.g.g.ValueSubjects(p, v)
	if len(subs) == 0 {
		return nil
	}
	out := make([]EntityID, 0, len(subs))
	for _, s := range subs {
		out = append(out, m.g.g.Label(s))
	}
	return out
}

// Graph returns the maintained graph. Mutate it only through Apply.
func (m *Matcher) Graph() *Graph { return m.g }

// Stats reports the repair work of one maintenance pass (see
// LastStats for what one pass covers).
type Stats = inc.Stats

// LastStats reports the repair work of the most recent maintenance
// pass. One pass covers one Apply OR one whole ApplyBatch: batched
// deltas (including everything a Writer coalesced into one batch)
// merge into a single pass, so after a batched call the Stats
// describe the batch as a whole, never a single delta —
// Stats.Merged reports how many deltas the pass covered. The counters
// reset at the start of every Apply/ApplyBatch, including calls whose
// merged delta coalesces to a no-op (those report zero work with the
// Merged count of the attempt). For cumulative counters that survive
// across passes, use Metrics.
func (m *Matcher) LastStats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.eng.LastStats()
}

func (m *Matcher) toMatches(pairs []eqrel.Pair) []Pair {
	out := make([]Pair, 0, len(pairs))
	for _, pr := range pairs {
		out = append(out, Pair{
			A: m.g.g.Label(graph.NodeID(pr.A)),
			B: m.g.g.Label(graph.NodeID(pr.B)),
		})
	}
	return out
}

// EachTriple calls fn for every triple of the graph: object is an
// entity ID or, when objectIsValue, a literal. It exists so callers
// (e.g. replay drivers) can construct deltas from the stored triples.
func (g *Graph) EachTriple(fn func(subject EntityID, predicate, object string, objectIsValue bool)) {
	g.g.EachTriple(func(s graph.NodeID, p graph.PredID, o graph.NodeID) {
		fn(g.g.Label(s), g.g.PredName(p), g.g.Label(o), g.g.IsValue(o))
	})
}

// EachEntity calls fn for every live entity with its type, in
// insertion order. It exists so callers can build deltas from a loaded
// graph.
func (g *Graph) EachEntity(fn func(id EntityID, typeName string)) {
	g.g.EachEntity(func(n graph.NodeID) {
		fn(g.g.Label(n), g.g.TypeName(g.g.TypeOf(n)))
	})
}

// Durability selects the WAL append policy of a durable Matcher (see
// OpenMatcher, SeedMatcher). NewMatcher ignores it: durability is a
// property of the log, and only those two have one.
type Durability int

const (
	// DurabilityAppend logs every applied delta, leaving fsync to the
	// OS: a crash may lose the most recently applied deltas but never
	// corrupts the log prefix.
	DurabilityAppend Durability = iota
	// DurabilityFsync additionally fsyncs the log before each delta
	// applies, so an acknowledged Apply survives any crash.
	DurabilityFsync
)

// OpenMatcher opens (creating if needed) a durable Matcher backed by
// the write-ahead log in dir: the snapshot graph (or an empty one) is
// loaded, its fixpoint chase(G, Σ) derived, and the logged deltas are
// replayed through the incremental engine — reconstructing both the
// graph and the match state the previous process reached. Every
// subsequent Apply/ApplyBatch appends its normalized deltas to the log
// (write-ahead, in the order the deltas serialize) under
// opts.Durability; deltas that coalesce to a no-op are not logged.
//
// A fresh directory opens empty at Seq 0 — Seq() == 0, not an empty
// graph, is what tells it from one whose entities were all removed. To
// start it from an existing graph, close it and call SeedMatcher.
//
// If the snapshot stores identified pairs, OpenMatcher cross-checks
// that re-deriving the fixpoint reproduces them and fails otherwise.
// Call Snapshot to compact the log and Close when done.
func OpenMatcher(dir string, ks *KeySet, opts Options) (*Matcher, error) {
	store, err := wal.Open(dir, opts.syncPolicy())
	if err != nil {
		return nil, err
	}
	gg := store.SnapshotGraph()
	if gg == nil {
		gg = graph.New()
	}
	m, err := NewMatcher(&Graph{g: gg}, ks, opts)
	if err != nil {
		return nil, closeOnErr(store, err)
	}
	store.RegisterObs(m.reg)
	if want := store.SnapshotPairs(); want != nil {
		if got := m.pairLabels(); !samePairLabels(got, want) {
			return nil, closeOnErr(store, fmt.Errorf("graphkeys: snapshot in %s stores %d pairs but re-deriving the fixpoint yields %d — snapshot and key set disagree", dir, len(want), len(got)))
		}
	}
	// Replay all records as one batch with a single worker: mutations
	// apply sequentially in log order (later records may depend on
	// earlier ones), but the incremental repair runs once over the
	// merged result instead of once per record — the same amortization
	// ApplyBatch buys on the write path, here cutting reopen latency.
	if recs := store.Records(); len(recs) > 0 {
		ds := make([]*graph.Delta, len(recs))
		for i, rec := range recs {
			ds[i] = graph.NewDeltaOps(rec.Ops)
		}
		if _, _, err := m.eng.ApplyAll(ds, 1); err != nil {
			return nil, closeOnErr(store, fmt.Errorf("graphkeys: replay of WAL records %d..%d: %v", recs[0].Seq, recs[len(recs)-1].Seq, err))
		}
	}
	m.logTo(store)
	return m, nil
}

// SeedMatcher is NewMatcher(g, ks, opts) made durable at Seq 1: on a
// fresh directory (created if needed) it computes chase(G, Σ) over g and
// publishes g and the identified pairs as the directory's first snapshot
// (fsynced under either Durability, as Snapshot's is) instead of logging
// one delta op per entity and triple. The log stays empty, the first
// Apply is Seq 2, and OpenMatcher reloads the same graph and fixpoint.
//
// The matcher adopts g: Graph() returns it, not a copy, the caller must
// not mutate it afterwards, and internal order (EntitiesWith, class
// representatives) is the loader's, as for NewMatcher(LoadGraph(…)). A
// directory that is not fresh (Seq > 0), or a graph the snapshot text
// cannot hold (a tab or newline in an entity ID, type or predicate), is
// refused: the store is closed and the directory is as it was.
func SeedMatcher(dir string, g *Graph, ks *KeySet, opts Options) (*Matcher, error) {
	store, err := wal.Open(dir, opts.syncPolicy())
	if err != nil {
		return nil, err
	}
	m, err := NewMatcher(g, ks, opts)
	if err != nil {
		return nil, closeOnErr(store, err)
	}
	store.RegisterObs(m.reg)
	if err := store.WriteSeed(g.g, m.pairLabels()); err != nil {
		return nil, closeOnErr(store, err)
	}
	m.logTo(store)
	return m, nil
}

func (o Options) syncPolicy() wal.SyncPolicy {
	if o.Durability == DurabilityFsync {
		return wal.SyncAlways
	}
	return wal.SyncNone
}

// logTo installs the write-ahead hook: it buffers the record under the
// plan mutex and hands back the group-commit wait, so the fsync (under
// DurabilityFsync) runs after the plan mutex is released and
// disjoint-footprint writers share one fsync per group instead of
// serializing a sync each inside the plan lock.
func (m *Matcher) logTo(store *wal.Store) {
	m.eng.SetLog(func(ops []graph.DeltaOp) (graph.DeltaCommit, error) {
		_, commit, err := store.Begin(ops)
		if err != nil {
			return nil, err
		}
		return graph.DeltaCommit(commit), nil
	})
	m.store = store
}

// closeOnErr abandons a half-opened store on an OpenMatcher or
// SeedMatcher error path, folding a close failure (which may carry a
// deferred write error) into the error being returned.
func closeOnErr(store *wal.Store, err error) error {
	if cerr := store.Close(); cerr != nil {
		return fmt.Errorf("%v (and closing the WAL failed: %v)", err, cerr)
	}
	return err
}

// ErrNotDurable is returned by Snapshot on a Matcher that has no log
// (one built by NewMatcher rather than OpenMatcher or SeedMatcher).
var ErrNotDurable = errors.New("graphkeys: Snapshot on a non-durable Matcher")

// Snapshot compacts a durable Matcher's log: it atomically writes the
// current graph and identified pairs as the new snapshot and truncates
// the WAL. On a Matcher built by NewMatcher it returns ErrNotDurable.
func (m *Matcher) Snapshot() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return ErrNotDurable
	}
	return m.store.WriteSnapshot(m.g.g, m.pairLabels())
}

// Close releases a durable Matcher's log; the Matcher stays readable
// but further Applies fail at the log. Close on a non-durable Matcher
// is a no-op.
func (m *Matcher) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return nil
	}
	return m.store.Close()
}

// pairLabels materializes the current fixpoint as sorted external-ID
// pairs. Caller holds m.mu.
func (m *Matcher) pairLabels() [][2]string {
	pairs := m.eng.Pairs()
	out := make([][2]string, 0, len(pairs))
	for _, pr := range pairs {
		a, b := m.g.g.Label(graph.NodeID(pr.A)), m.g.g.Label(graph.NodeID(pr.B))
		if a > b {
			a, b = b, a
		}
		out = append(out, [2]string{a, b})
	}
	sortPairLabels(out)
	return out
}

func sortPairLabels(ps [][2]string) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

// samePairLabels reports whether a (already sorted, as pairLabels
// returns) and b contain the same pairs. b may arrive in any order and
// may be caller-owned (OpenMatcher passes the WAL's snapshot slice),
// so the sort runs on a copy — sorting in place would mutate the
// store's data behind its back.
func samePairLabels(a, b [][2]string) bool {
	if len(a) != len(b) {
		return false
	}
	b = append([][2]string(nil), b...)
	sortPairLabels(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
