package graphkeys

import (
	"errors"
	"fmt"
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
// boundary. Concurrent reads run in parallel.
type Matcher struct {
	// mu is the one lock between the writer (Apply, ApplyBatch,
	// Snapshot) and the readers. The graph beneath takes no read locks
	// — it allows one writer or any number of readers — so mu is what
	// keeps every read of it, and of the match state, off the writer.
	mu    sync.RWMutex
	g     *Graph
	eng   *inc.Engine
	store *wal.Store // non-nil for durable matchers (OpenMatcher, SeedMatcher)

	// ks and opts are what the matcher was built with, and dir is a
	// durable matcher's WAL directory: a failed group commit re-opens
	// the directory with them (reopenLocked). broken, once set, is the
	// error every later write fails with, because that re-open failed
	// too or could not be trusted.
	ks     *KeySet
	opts   Options
	dir    string
	broken error

	// Observability (see observe.go): every Matcher carries its own
	// registry and tracer, snapshotted by Metrics and served by
	// MetricsHandler.
	reg         *obs.Registry
	trace       *obs.Tracer
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

// eventLocked is the ApplyEvent of the pass that just ran; it invokes
// the onApply hook if the pair set changed. Caller holds m.mu.
func (m *Matcher) eventLocked(added, removed []eqrel.Pair) ApplyEvent {
	ev := ApplyEvent{Seq: m.seqLocked(), Added: m.toMatches(added), Removed: m.toMatches(removed)}
	if m.onApply != nil && (len(ev.Added) > 0 || len(ev.Removed) > 0) {
		m.onApply(ev)
	}
	return ev
}

// NewMatcher computes chase(G, Σ) with the sequential chase and
// returns a Matcher maintaining it. Options.Engine is ignored: the
// incremental result always equals the sequential chase (and hence,
// by Church–Rosser, every engine).
func NewMatcher(g *Graph, ks *KeySet, opts Options) (*Matcher, error) {
	if g == nil || ks == nil {
		return nil, fmt.Errorf("graphkeys: NewMatcher requires a graph and a key set")
	}
	m := &Matcher{g: g, ks: ks, opts: opts}
	m.registerObs()
	eng, err := m.newEngine(g.g)
	if err != nil {
		return nil, err
	}
	m.eng = eng
	return m, nil
}

// newEngine instruments g with the matcher's registry and derives
// chase(g, Σ) in a fresh incremental engine.
func (m *Matcher) newEngine(g *graph.Graph) (*inc.Engine, error) {
	g.RegisterObs(m.reg)
	return inc.New(g, m.ks.set, inc.Options{
		Match: match.Options{ValueEq: m.opts.ValueEq, Obs: m.obMatch, Eng: m.obEng},
		Obs:   inc.RegisterObs(m.reg),
		Trace: m.trace,
	})
}

// ErrInvalidDelta is matched (errors.Is) by a delta's validation error,
// from Apply, ApplyBatch and its Outcomes; a log error does not match.
var ErrInvalidDelta = graph.ErrInvalidDelta

// Apply is ApplyBatch of the one delta: it mutates the graph by the
// delta and repairs the fixpoint, returning the matches that appeared
// and disappeared. The delta is applied atomically: on error neither
// the graph nor the match state changes.
func (m *Matcher) Apply(d *Delta) (added, removed []Pair, err error) {
	if d == nil {
		return nil, nil, nil
	}
	ev, outcomes, _ := m.ApplyBatch([]*Delta{d})
	if err := outcomes[0].Err; err != nil {
		return nil, nil, err
	}
	return ev.Added, ev.Removed, nil
}

// Outcome is what ApplyBatch did with one delta: Err is nil when it
// applied (or coalesced to a no-op), and Seq is the matcher's seq once
// it was tried — on a durable matcher its WAL seq (the seq before it
// when it logged nothing), on an in-memory one the seq of the batch's
// pass, shared by every delta of the batch. When the log failed, every
// Outcome of the batch carries that error and the seq the matcher is
// back at.
type Outcome struct {
	Seq uint64
	Err error
}

// ApplyBatch mutates the graph by every delta, in order, and repairs
// the fixpoint with one maintenance pass over the merged changes: the
// batch ends in exactly the state repeated Apply calls reach, and
// readers see it whole or not at all. A delta that fails validation
// (ErrInvalidDelta) is skipped and the rest apply. On a durable matcher
// the batch is one WAL group: each delta's record is added as it
// applies, and the group is written (and fsynced under DurabilityFsync)
// once, after the batch's mutations and before its repair pass. If the
// log fails, no delta of the batch applies: every Outcome carries the
// error, and the matcher re-opens its directory in place, so its graph,
// node IDs, classes and Seq are OpenMatcher's for the acknowledged
// prefix. If that re-open fails too, lands on another seq, or follows
// a rewind of the log that failed, the matcher stays at the
// acknowledged seq, which every Outcome carries, and every later write
// and Snapshot fails with an error naming it. outcomes holds one
// Outcome per delta and err joins their errors. ev is the pass's event,
// at the seq after the batch, handed to the SetOnApply hook when the
// pair set changed.
func (m *Matcher) ApplyBatch(ds []*Delta) (ev ApplyEvent, outcomes []Outcome, err error) {
	gds := make([]*graph.Delta, len(ds))
	for i, d := range ds {
		if d != nil {
			gds[i] = &d.d
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return m.failLocked(len(ds), m.broken)
	}
	ack := m.seqLocked()
	m.obBatchSize.Observe(int64(len(ds)))
	t0 := m.obBatch.Start()
	outcomes = make([]Outcome, 0, len(ds))
	addedPairs, removedPairs, err := m.eng.ApplyEach(gds, func(_ int, err error) {
		outcomes = append(outcomes, Outcome{Seq: m.seqLocked(), Err: err})
	})
	m.obBatch.ObserveSince(t0)
	if ce := (*inc.CommitError)(nil); errors.As(err, &ce) {
		// The graph holds the batch and the log does not: go back to
		// what the log holds.
		if rerr := m.reopenLocked(ack); rerr != nil {
			m.broken = fmt.Errorf("graphkeys: %v (and re-opening %s failed: %v; the matcher refuses writes at the acknowledged seq %d)", ce.Err, m.dir, rerr, ack)
		}
		return m.failLocked(len(ds), ce.Err)
	}
	for _, o := range outcomes {
		if o.Err != nil && !errors.Is(o.Err, ErrInvalidDelta) {
			return m.failLocked(len(ds), o.Err)
		}
	}
	ev = m.eventLocked(addedPairs, removedPairs)
	if m.store == nil {
		for i := range outcomes {
			outcomes[i].Seq = ev.Seq
		}
	}
	return ev, outcomes, err
}

// failLocked answers a batch the log failed: every one of its n deltas
// carries err, at the seq the matcher is at. Caller holds m.mu.
func (m *Matcher) failLocked(n int, err error) (ApplyEvent, []Outcome, error) {
	seq := m.seqLocked()
	outcomes := make([]Outcome, n)
	for i := range outcomes {
		outcomes[i] = Outcome{Seq: seq, Err: err}
	}
	return ApplyEvent{Seq: seq}, outcomes, err
}

// Result materializes the current chase(G, Σ) as a Result, identical
// to what Match would return on the current graph.
func (m *Matcher) Result() *Result {
	m.mu.RLock()
	defer m.mu.RUnlock()
	eq := m.eng.Eq()
	return buildResult(m.g, eq.Classes(), eq.Pairs(), Chase)
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
	return na == nb || m.eng.Eq().Same(int32(na), int32(nb))
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
	root := m.eng.Eq().Find(int32(na))
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

// Graph returns the maintained graph. Mutate it only through Apply or
// ApplyBatch, and read it only while neither runs: the graph takes no
// lock of its own, and the matcher's lock does not cover reads made
// through it.
func (m *Matcher) Graph() *Graph { return m.g }

// Stats reports the repair work of one maintenance pass (see
// LastStats for what one pass covers).
type Stats = inc.Stats

// LastStats reports the repair work of the most recent maintenance
// pass. One pass covers one Apply OR one whole ApplyBatch: batched
// deltas (a Writer's buffer, an /apply body) merge into a single pass,
// so after a batched call the Stats describe the batch as a whole,
// never a single delta —
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
	// DurabilityAppend logs every batch as one group, leaving fsync to
	// the OS: a crash may lose the most recently applied batches but
	// never corrupts the log prefix.
	DurabilityAppend Durability = iota
	// DurabilityFsync additionally fsyncs each batch's group before the
	// batch's repair pass, so an acknowledged Apply or ApplyBatch
	// survives any crash: one fsync per batch, whatever its size.
	DurabilityFsync
)

// OpenMatcher opens (creating if needed) a durable Matcher backed by
// the write-ahead log in dir: the snapshot graph (or an empty one) is
// loaded, its fixpoint chase(G, Σ) derived, and the logged deltas are
// replayed through the incremental engine — reconstructing both the
// graph and the match state the previous process reached. Every
// subsequent Apply/ApplyBatch appends its normalized deltas to the log
// (write-ahead, in the order the deltas apply) under
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
	if ks == nil {
		return nil, fmt.Errorf("graphkeys: OpenMatcher requires a key set")
	}
	m := &Matcher{g: &Graph{}, ks: ks, opts: opts, dir: dir}
	m.registerObs()
	if err := m.open(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// open loads the matcher's WAL directory: the snapshot graph (or an
// empty one) and its fixpoint, cross-checked against the snapshot's
// pairs, with the logged deltas replayed on top. With ack non-nil the
// directory must open at seq *ack. On success the graph, engine and
// store become the matcher's — the *Graph wrapper, registry and
// SetOnApply hook stay — and on error the matcher is as it was. Caller
// holds m.mu or owns m.
func (m *Matcher) open(ack *uint64) error {
	store, err := wal.Open(m.dir, m.opts.syncPolicy())
	if err != nil {
		return err
	}
	if ack != nil && store.Seq() != *ack {
		return closeOnErr(store, fmt.Errorf("it opened at seq %d, not at the acknowledged seq %d", store.Seq(), *ack))
	}
	g := store.SnapshotGraph()
	if g == nil {
		g = graph.New()
	}
	eng, err := m.newEngine(g)
	if err != nil {
		return closeOnErr(store, err)
	}
	store.RegisterObs(m.reg)
	if err := checkStoredPairs(g, eng.Eq(), store.SnapshotPairs()); err != nil {
		return closeOnErr(store, fmt.Errorf("graphkeys: snapshot in %s: %v — snapshot and key set disagree", m.dir, err))
	}
	// Replay all records as one batch: mutations apply in log order
	// (later records may depend on earlier ones), but the incremental
	// repair runs once over the merged result instead of once per
	// record — the same amortization ApplyBatch buys on the write path,
	// here cutting reopen latency.
	if recs := store.Records(); len(recs) > 0 {
		ds := make([]*graph.Delta, len(recs))
		for i, rec := range recs {
			ds[i] = graph.NewDeltaOps(rec.Ops)
		}
		if _, _, err := eng.ApplyEach(ds, nil); err != nil {
			return closeOnErr(store, fmt.Errorf("graphkeys: replay of WAL records %d..%d: %v", recs[0].Seq, recs[len(recs)-1].Seq, err))
		}
	}
	m.g.g, m.eng = g, eng
	m.logTo(store)
	return nil
}

// reopenLocked puts the matcher back where its log is, after a failed
// group commit left the graph holding deltas the log does not: it
// closes the store and opens the directory again, at ack, the seq the
// matcher had acknowledged before the batch. A store whose close fails
// is not re-opened: one a failed rewind broke may still log the failed
// group, and a deferred write error leaves the log in doubt. Caller
// holds m.mu.
func (m *Matcher) reopenLocked(ack uint64) error {
	if err := m.store.Close(); err != nil {
		return err
	}
	return m.open(&ack)
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
// representatives) is the loader's, as for NewMatcher(LoadGraph(…)),
// and survives a reopen. Any names seed: the snapshot stores the
// graph's tables, not text. A directory that is not fresh (Seq > 0) is
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
	if err := store.WriteSeed(g.g, starLabels(g.g, m.eng.Eq())); err != nil {
		return nil, closeOnErr(store, err)
	}
	m.dir = dir
	m.logTo(store)
	return m, nil
}

func (o Options) syncPolicy() wal.SyncPolicy {
	if o.Durability == DurabilityFsync {
		return wal.SyncAlways
	}
	return wal.SyncNone
}

// logTo makes the store the engine's group log: each delta's record is
// added to the open group before the delta lowers, and the group is
// committed (fsynced under DurabilityFsync) once per batch, before the
// batch's repair pass.
func (m *Matcher) logTo(store *wal.Store) {
	m.eng.SetGroupLog(func(ops []graph.DeltaOp) error {
		_, err := store.Add(ops)
		return err
	}, store.Commit)
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
// current graph's tables and identified pairs as the new snapshot and
// truncates the WAL. Every name round-trips, whatever bytes it holds.
// Tombstoned entities and values no triple points at are dropped, so a
// reopen renumbers the nodes after them; a graph with neither reopens
// with its order (EntitiesWith, class representatives) as it was. On a
// Matcher built by NewMatcher it returns ErrNotDurable.
func (m *Matcher) Snapshot() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return ErrNotDurable
	}
	if m.broken != nil {
		return m.broken
	}
	return m.store.WriteSnapshot(m.g.g, starLabels(m.g.g, m.eng.Eq()))
}

// Close releases a durable Matcher's log; the Matcher stays readable
// but further Applies fail at the log. It fails after a batch whose
// log could not be rewound, because the log may still hold that batch.
// Close on a non-durable Matcher is a no-op.
func (m *Matcher) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return nil
	}
	return m.store.Close()
}

// starLabels is eq's fixpoint over g as one star per class, in
// external IDs: the pair (first member, m) for every other member m, so
// a class of k stores k − 1 pairs whose closure is the class.
func starLabels(g *graph.Graph, eq *eqrel.Eq) [][2]string {
	classes, n := eq.Classes(), 0
	for _, c := range classes {
		n += len(c) - 1
	}
	out := make([][2]string, 0, n)
	for _, c := range classes {
		first := g.Label(graph.NodeID(c[0]))
		for _, m := range c[1:] {
			out = append(out, [2]string{first, g.Label(graph.NodeID(m))})
		}
	}
	return out
}

// checkStoredPairs holds the pairs a snapshot stores to eq, the
// fixpoint re-derived over the snapshot's graph g: every pair names two
// distinct entities of g that eq identifies, and unioning the pairs
// merges Σ(k − 1) times over eq's classes of k members. Together these
// hold exactly when the pairs' closure is eq: inside a class of k the
// pairs merge at most k − 1 times, and k − 1 only when they connect
// the whole class. A version 3 snapshot stores a star per class, a
// version 2 one every pair; both pass. The scratch relation is sized
// by the pairs, not by the graph.
func checkStoredPairs(g *graph.Graph, eq *eqrel.Eq, pairs [][2]string) error {
	dense := make(map[graph.NodeID]int32, len(pairs))
	scratch := eqrel.New(2 * len(pairs))
	slot := func(n graph.NodeID) int32 {
		i, ok := dense[n]
		if !ok {
			i = int32(len(dense))
			dense[n] = i
		}
		return i
	}
	merges := 0
	for _, pr := range pairs {
		a, okA := g.Entity(pr[0])
		b, okB := g.Entity(pr[1])
		switch {
		case !okA || !okB || !g.IsEntity(a) || !g.IsEntity(b):
			return fmt.Errorf("stored pair (%q, %q) names no entity of the snapshot graph", pr[0], pr[1])
		case a == b:
			return fmt.Errorf("stored pair (%q, %q) names one entity twice", pr[0], pr[1])
		case !eq.Same(int32(a), int32(b)):
			return fmt.Errorf("stored pair (%q, %q) is not identified by re-deriving the fixpoint", pr[0], pr[1])
		}
		if scratch.Union(slot(a), slot(b)) {
			merges++
		}
	}
	want := 0
	for _, c := range eq.Classes() {
		want += len(c) - 1
	}
	if merges != want {
		return fmt.Errorf("the stored pairs merge %d times, re-deriving the fixpoint %d", merges, want)
	}
	return nil
}
