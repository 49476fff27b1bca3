package main

// Every call the benchmark makes into graphkeys/internal/... is in this
// file, so the list of entry points the probes depend on is this
// file's function list. They are the ones ROADMAP item 4 keeps: the
// streaming candidate path, chase.Run parameterised by Parallelism,
// the delta write path and the WAL. Nothing here calls
// CandidatesIndexed, ValuePartners, chase.Options.Materialize,
// emmr.Run or emvc.Run, so a PR that deletes those never has to touch
// benchmark/.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"

	"graphkeys"
	"graphkeys/internal/chase"
	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/inc"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
	"graphkeys/internal/serve"
	"graphkeys/internal/wal"
)

// chainPrefix marks the planted chain entities: the part of every
// input that the write streams mutate. Everything without the prefix
// is immutable for the whole run, so reads on it have fixed answers.
const chainPrefix = "c_"

// genWorkload builds one input with internal/gen: the flavoured base
// graph plus two planted recursive chains (c=2, d=2, 20 % duplicates,
// 30 % near-misses), the paper's baseline key setting.
func genWorkload(spec inputSpec, seed int64) (*gen.Workload, error) {
	var (
		w   *gen.Workload
		err error
	)
	switch spec.flavor {
	case "dbpedia":
		w, err = gen.DBpedia(gen.FlavorConfig{Seed: seed, Scale: spec.scale})
	case "google":
		w, err = gen.Google(gen.FlavorConfig{Seed: seed, Scale: spec.scale})
	default:
		return nil, fmt.Errorf("unknown input flavor %q", spec.flavor)
	}
	if err != nil {
		return nil, err
	}
	err = gen.PlantChains(w, gen.SyntheticConfig{
		Seed:                seed + 13,
		TypeGroups:          2,
		EntitiesPerType:     spec.perType,
		DupFraction:         0.2,
		NearMissFraction:    0.3,
		Chain:               2,
		Radius:              2,
		Labels:              6000,
		NoiseEdgesPerEntity: 1,
	}, chainPrefix)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// describeWorkload flattens a generated workload into what the public
// API consumes: graph text, key DSL, and name-level views of the
// planted pairs, entities and value triples.
func describeWorkload(w *gen.Workload) (graphText []byte, keysText string, expected [][2]string, entities []string, values []valueTriple, err error) {
	var buf bytes.Buffer
	if err := w.Graph.WriteText(&buf); err != nil {
		return nil, "", nil, nil, nil, err
	}
	for _, pr := range w.Expected {
		expected = append(expected, canonPair(w.Graph.Label(graph.NodeID(pr.A)), w.Graph.Label(graph.NodeID(pr.B))))
	}
	w.Graph.EachEntity(func(n graph.NodeID) {
		entities = append(entities, w.Graph.Label(n))
	})
	w.Graph.EachTriple(func(s graph.NodeID, p graph.PredID, o graph.NodeID) {
		if w.Graph.IsValue(o) {
			values = append(values, valueTriple{s: w.Graph.Label(s), p: w.Graph.PredName(p), v: w.Graph.Label(o)})
		}
	})
	return buf.Bytes(), w.Keys.Format(), expected, entities, values, nil
}

// coreInst is the stack below graphkeys.Matcher on its own generated
// graph. withEngine assembles it the way OpenMatcher does: incremental
// engine with its registry and a WAL behind the engine's log hook.
type coreInst struct {
	w     *gen.Workload
	eng   *inc.Engine
	store *wal.Store
	reg   *obs.Registry
}

func newCore(spec inputSpec, seed int64) (*coreInst, error) {
	w, err := genWorkload(spec, seed)
	if err != nil {
		return nil, err
	}
	return &coreInst{w: w}, nil
}

func (c *coreInst) withEngine(walDir string) error {
	c.reg = obs.NewRegistry()
	c.w.Graph.RegisterObs(c.reg)
	var err error
	c.eng, err = inc.New(c.w.Graph, c.w.Keys, inc.Options{
		Match: match.Options{Obs: match.NewObs(c.reg), Eng: engine.NewObs(c.reg)},
		Obs:   inc.RegisterObs(c.reg),
	})
	if err != nil {
		return err
	}
	c.store, err = wal.Open(walDir, wal.SyncAlways)
	if err != nil {
		return err
	}
	c.store.RegisterObs(c.reg)
	store := c.store
	c.eng.SetLog(func(ops []graph.DeltaOp) (graph.DeltaCommit, error) {
		_, commit, err := store.Begin(ops)
		if err != nil {
			return nil, err
		}
		return graph.DeltaCommit(commit), nil
	})
	return nil
}

func (c *coreInst) close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}

func (c *coreInst) counters() obs.Snapshot { return c.reg.Snapshot() }

func flipDelta(f flipOp) *graph.Delta {
	d := &graph.Delta{}
	if f.add {
		return d.AddValueTriple(f.s, f.p, f.v)
	}
	return d.RemoveValueTriple(f.s, f.p, f.v)
}

// incApply is inc.Engine.Apply: plan, log, mutate, repair.
func (c *coreInst) incApply(f flipOp) error {
	_, _, err := c.eng.Apply(flipDelta(f))
	return err
}

// incApplyAll is inc.Engine.ApplyAll over one batch.
func (c *coreInst) incApplyAll(fs []flipOp) error {
	ds := make([]*graph.Delta, len(fs))
	for i, f := range fs {
		ds[i] = flipDelta(f)
	}
	_, _, err := c.eng.ApplyAll(ds, engine.Workers(0))
	return err
}

// graphApplyDelta is graph.ApplyDelta: the planned store mutation
// without log and without repair.
func (c *coreInst) graphApplyDelta(f flipOp) error {
	_, err := c.w.Graph.ApplyDelta(flipDelta(f))
	return err
}

// walCommit is wal.Store.Begin plus its commit wait: one record, one
// group, one fsync.
func walCommit(s *wal.Store, f flipOp) error {
	_, commit, err := s.Begin(flipDelta(f).Ops())
	if err != nil {
		return err
	}
	return commit()
}

func walOpen(dir string) (*wal.Store, error) { return wal.Open(dir, wal.SyncAlways) }

// serveHandler is serve.New: the HTTP surface over the matcher, which
// it takes over (Writer, OnApply hook). closeFn drains, snapshots and
// closes the matcher.
func serveHandler(m *graphkeys.Matcher) (h http.Handler, closeFn func() error) {
	srv := serve.New(m, serve.Options{})
	return srv, srv.Close
}

// sameLeaf is what Matcher.Canonical ×2 + Matcher.Same resolve to
// below the Matcher's lock: graph.Entity lookups, non-compressing
// union-find reads and label lookups.
func (c *coreInst) sameLeaf(a, b string) bool {
	g, rd := c.w.Graph, c.eng.Eq().Reader()
	na, okA := g.Entity(a)
	nb, okB := g.Entity(b)
	if !okA || !okB {
		return false
	}
	_ = g.Label(graph.NodeID(rd.Find(int32(na))))
	_ = g.Label(graph.NodeID(rd.Find(int32(nb))))
	na, _ = g.Entity(a)
	nb, _ = g.Entity(b)
	return na == nb || rd.Same(int32(na), int32(nb))
}

// entitiesLeaf is what Matcher.EntitiesWith resolves to: the inverted
// value index.
func (c *coreInst) entitiesLeaf(p, v string) int {
	g := c.w.Graph
	pid, ok := g.PredByName(p)
	if !ok {
		return 0
	}
	vid, ok := g.Value(v)
	if !ok {
		return 0
	}
	subs := g.ValueSubjects(pid, vid)
	for _, s := range subs {
		_ = g.Label(s)
	}
	return len(subs)
}

// entityLookups and readerSames run n calls of graph.Entity and
// eqrel.Reader.Same; the caller times the block, because one call is
// shorter than a clock read.
func (c *coreInst) entityLookups(names []string, n int) {
	g := c.w.Graph
	for i := 0; i < n; i++ {
		g.Entity(names[i%len(names)])
	}
}

func (c *coreInst) readerSames(names []string, n int) {
	g, rd := c.w.Graph, c.eng.Eq().Reader()
	ids := make([]int32, len(names))
	for i, nm := range names {
		id, _ := g.Entity(nm)
		ids[i] = int32(id)
	}
	for i := 0; i < n; i++ {
		rd.Same(ids[i%len(ids)], ids[(i*7+1)%len(ids)])
	}
}

// batchProbe holds the batch ladder's layer calls on one generated
// workload.
type batchProbe struct {
	w *gen.Workload
	m *match.Matcher
}

func keysParse(dsl string) error {
	_, err := keys.Parse(strings.NewReader(dsl))
	return err
}

func graphLoadText(r io.Reader) error {
	_, err := graph.ParseText(r)
	return err
}

func newBatchProbe(spec inputSpec, seed int64) (*batchProbe, error) {
	w, err := genWorkload(spec, seed)
	if err != nil {
		return nil, err
	}
	return &batchProbe{w: w}, nil
}

// matchNew is match.New: key compilation plus the eager d-neighbour
// precomputation.
func (b *batchProbe) matchNew() error {
	m, err := match.New(b.w.Graph, b.w.Keys, match.Options{})
	b.m = m
	return err
}

// drainCandidates drains match.CandidateStream and counts it.
func (b *batchProbe) drainCandidates() (n int) {
	for range b.m.CandidateStream() {
		n++
	}
	return n
}

// sampleOf returns the first k candidates: the fixed check sample.
func (b *batchProbe) sampleOf(k int) (sample []eqrel.Pair) {
	for pr := range b.m.CandidateStream() {
		if len(sample) >= k {
			break
		}
		sample = append(sample, pr)
	}
	return sample
}

// checkPairs runs match.Identified on every sampled pair against the
// identity relation Eq0.
func (b *batchProbe) checkPairs(sample []eqrel.Pair) (isoSteps int) {
	eq := match.Identity()
	for _, pr := range sample {
		_, _, steps := b.m.Identified(graph.NodeID(pr.A), graph.NodeID(pr.B), eq)
		isoSteps += steps
	}
	return isoSteps
}

type chaseStats struct{ isoSteps, steps, candidates, pairs int }

// chaseRun is chase.Run; parallelism 1 is the sequential driver, 0 the
// default worker count.
func (b *batchProbe) chaseRun(parallelism int) (chaseStats, error) {
	if parallelism == 0 {
		parallelism = engine.Workers(0)
	}
	res, err := chase.Run(b.w.Graph, b.w.Keys, chase.Options{Parallelism: parallelism})
	if err != nil {
		return chaseStats{}, err
	}
	return chaseStats{isoSteps: res.IsoSteps, steps: len(res.Steps), candidates: res.Candidates, pairs: len(res.Pairs)}, nil
}

// engineParallel fans n no-op items out over the default worker count.
func engineParallel(n int) {
	engine.Parallel(nil, engine.Workers(0), n, func(int) {})
}

// recoveryProbe replays a WAL directory the way OpenMatcher does, one
// layer at a time.
type recoveryProbe struct {
	dir   string
	store *wal.Store
	eng   *inc.Engine
	ks    *keys.Set
}

func newRecoveryProbe(dir, keysText string) (*recoveryProbe, error) {
	ks, err := keys.ParseString(keysText)
	if err != nil {
		return nil, err
	}
	return &recoveryProbe{dir: dir, ks: ks}, nil
}

// walReplay is wal.Replay: snapshot load, log scan, records applied to
// the graph.
func (r *recoveryProbe) walReplay() (records int, err error) {
	_, recs, err := wal.Replay(r.dir)
	return len(recs), err
}

// open is wal.Open: snapshot load and log scan, nothing applied.
func (r *recoveryProbe) open() error {
	var err error
	r.store, err = wal.Open(r.dir, wal.SyncNone)
	return err
}

// incNew is inc.New on the snapshot graph: the initial chase of a
// recovery.
func (r *recoveryProbe) incNew() error {
	g := r.store.SnapshotGraph()
	if g == nil {
		g = graph.New()
	}
	var err error
	r.eng, err = inc.New(g, r.ks, inc.Options{})
	return err
}

// replayApplyAll is inc.Engine.ApplyAll(records, 1): every logged
// delta in log order, one repair pass.
func (r *recoveryProbe) replayApplyAll() error {
	recs := r.store.Records()
	ds := make([]*graph.Delta, len(recs))
	for i, rec := range recs {
		ds[i] = graph.NewDeltaOps(rec.Ops)
	}
	_, _, err := r.eng.ApplyAll(ds, 1)
	return err
}

func (r *recoveryProbe) close() error {
	if r.store == nil {
		return nil
	}
	return r.store.Close()
}

// histSnap is the histogram summary of a graphkeys.Metrics snapshot.
type histSnap = obs.HistogramSnapshot
