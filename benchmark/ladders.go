package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"graphkeys"
)

// The traced pass. Spans are recorded here, in the benchmark's own
// files, around the call into each layer; the program under test is
// not instrumented. A ladder replays one op stream at successive
// depths of the stack, single-goroutine, each depth through that
// layer's public entry point. For op i the span at depth k is the
// parent of the span at depth k+1, although the two ran at different
// times on different (identically seeded) instances.
//
// A layer's self time is the median of its depth minus the median of
// the depth below, so the self times of a ladder add up to the depth-0
// median exactly.

type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 at depth 0
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// rung is one depth of a ladder. parent is the index of the rung whose
// spans are this rung's parents, -1 at depth 0. A block rung runs all
// the ops of a chunk inside one span: the same work without a clock
// read per op, which is what tracing overhead is measured against.
type rung struct {
	name   string
	parent int
	block  bool
	do     func(i int) error
}

// climb runs n ops through every rung and returns each rung's span
// durations in nanoseconds (per op; per chunk for block rungs). The
// rungs take turns chunk by chunk — ops [0, chunk) through every rung,
// then [chunk, 2*chunk) — so that a slow minute of the machine slows
// all depths alike and cancels out of the self times. A chunk of the
// write ladder removes triples and puts them back, so every rung finds
// the state the previous one found.
func (t *tracer) climb(n, chunk int, rungs []rung) ([][]float64, error) {
	durs := make([][]float64, len(rungs))
	index := make([][]int, len(rungs)) // index[k][i]: span of op i at rung k
	for k := range rungs {
		index[k] = make([]int, n)
	}
	record := func(k, i int, start, end time.Time) {
		parent := -1
		if p := rungs[k].parent; p >= 0 {
			parent = index[p][i]
		}
		index[k][i] = len(t.spans)
		t.spans = append(t.spans, span{Name: rungs[k].name, Op: i, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent})
		durs[k] = append(durs[k], float64(end.Sub(start).Nanoseconds()))
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		for k, r := range rungs {
			if r.block {
				start := time.Now()
				for i := lo; i < hi; i++ {
					if err := r.do(i); err != nil {
						return nil, fmt.Errorf("%s op %d: %v", r.name, i, err)
					}
				}
				record(k, lo, start, time.Now())
				continue
			}
			for i := lo; i < hi; i++ {
				start := time.Now()
				err := r.do(i)
				end := time.Now()
				if err != nil {
					return nil, fmt.Errorf("%s op %d: %v", r.name, i, err)
				}
				record(k, i, start, end)
			}
		}
	}
	return durs, nil
}

// block times n runs of fn as single spans and returns their
// durations in nanoseconds.
func (t *tracer) block(name string, n int, fn func() error) ([]float64, error) {
	durs, err := t.climb(n, n, []rung{{name: name, parent: -1, do: func(int) error { return fn() }}})
	if err != nil {
		return nil, err
	}
	return durs[0], nil
}

// ladderSizes are the op counts of the traced pass.
type ladderSizes struct {
	sames, ents int // read ladder ops
	writes      int // write ladder ops: writes/2 removes, then the same re-added
	batch       int // ApplyBatch / ApplyAll batch size
	batchRounds int // remove-batch + add-batch pairs
	checks      int // candidate pairs checked by match.Identified
	reps        int // repetitions of each batch-ladder block
	items       int // engine.Parallel no-op items
	microOps    int // graph.Entity / Reader.Same calls per timed block
}

// frontInst is instance A of the ladders: a durable fsync Matcher under
// serve.New, behind a real net/http server on a loopback port.
type frontInst struct {
	d       *durableInst
	handler http.Handler
	closeFn func() error
	srv     *http.Server
	done    chan error
	c       *client
}

func newFront(spec inputSpec, seed int64, dir string) (*frontInst, error) {
	d, err := setupDurable(spec, seed, dir)
	if err != nil {
		return nil, err
	}
	f := &frontInst{d: d, done: make(chan error, 1)}
	f.handler, f.closeFn = serveHandler(d.m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.closeFn()
		return nil, err
	}
	f.srv = &http.Server{Handler: f.handler}
	go func() { f.done <- f.srv.Serve(l) }()
	f.c = newClient("http://"+l.Addr().String(), 1)
	return f, nil
}

func (f *frontInst) close() error {
	f.c.close()
	err := f.srv.Close()
	<-f.done
	if cerr := f.closeFn(); err == nil {
		err = cerr
	}
	return err
}

// roundTrip is depth 0: one loopback request, body drained and status
// checked.
func (f *frontInst) roundTrip(op httpOp, buf *bytes.Buffer) error {
	status, _, err := f.c.do(op.method, op.path, op.body, buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return fmt.Errorf("%s %s: status %d", op.method, op.path, status)
	}
	return nil
}

// recorded is depth 1: serve.Server.ServeHTTP on a recorder, no
// socket. Request and recorder are built before the clock starts.
type recorded struct {
	req *http.Request
	rec *httptest.ResponseRecorder
}

func prepare(ops []httpOp) []recorded {
	out := make([]recorded, len(ops))
	for i, op := range ops {
		var req *http.Request
		if op.body != nil {
			req = httptest.NewRequest(op.method, op.path, bytes.NewReader(op.body))
		} else {
			req = httptest.NewRequest(op.method, op.path, nil)
		}
		out[i] = recorded{req: req, rec: httptest.NewRecorder()}
	}
	return out
}

func (f *frontInst) serveHTTP(r recorded) error {
	f.handler.ServeHTTP(r.rec, r.req)
	if r.rec.Code != http.StatusOK && r.rec.Code != http.StatusAccepted {
		return fmt.Errorf("%s %s: status %d", r.req.Method, r.req.URL, r.rec.Code)
	}
	return nil
}

// roundTripFlips covers k triples in chunks: each chunk removes its
// triples and then re-adds them, so after every 2*per ops the graph is
// back where it started.
func (in *input) roundTripFlips(k, per int) []flipOp {
	k = min(k, len(in.flips))
	out := make([]flipOp, 0, 2*k)
	for lo := 0; lo < k; lo += per {
		for _, add := range []bool{false, true} {
			for _, vt := range in.flips[lo:min(lo+per, k)] {
				out = append(out, flipOp{valueTriple: vt, add: add})
			}
		}
	}
	return out
}

type ladderOut struct {
	metrics map[string]sample
	// budget holds, per ladder, the self time of every rung in
	// microseconds, top down: the rows of README's budget table.
	budget map[string][]budgetRow
}

type budgetRow struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
}

// selfTimes turns the rung medians of one ladder into self times:
// each rung minus its children. Block rungs are not part of the
// ladder and get 0.
func selfTimes(rungs []rung, durs [][]float64) []float64 {
	self := make([]float64, len(rungs))
	for k, r := range rungs {
		if r.block {
			continue
		}
		self[k] += median(durs[k])
		if r.parent >= 0 {
			self[r.parent] -= median(durs[k])
		}
	}
	return self
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

const (
	readChunk     = 200 // ops of a read ladder each rung runs before the next rung takes over
	flipsPerChunk = 10  // triples a write-ladder chunk removes and re-adds
)

// ladders holds the instances the ladders run on. front is a durable
// fsync Matcher under serve.New behind a loopback server (depths 0-2);
// core is the stack below the Matcher on its own graph and WAL (depth
// 3); bare is a graph alone and store a WAL alone (depth 3's
// children).
type ladders struct {
	t     *tracer
	sz    ladderSizes
	in    *input
	front *frontInst
	core  *coreInst
	out   *ladderOut
	buf   bytes.Buffer
}

func (l *ladders) put(name string, v float64, unit string, n int) {
	l.out.metrics[name] = counted(v, unit, n)
}

func (l *ladders) budget(ladder string, rungs []rung, self []float64) {
	for k, r := range rungs {
		if !r.block {
			l.out.budget[ladder] = append(l.out.budget[ladder], budgetRow{Layer: r.name, SelfUS: self[k] / 1e3})
		}
	}
}

// runLadders runs the read, write, recovery and batch ladders on
// instances seeded like the workload's input. walDir is a directory
// with logged deltas to recover (the churn stage's copy).
func runLadders(t *tracer, spec inputSpec, seed int64, sz ladderSizes, scratch, walDir string) (*ladderOut, error) {
	l := &ladders{t: t, sz: sz, out: &ladderOut{metrics: make(map[string]sample), budget: make(map[string][]budgetRow)}}
	var err error
	if l.front, err = newFront(spec, seed, filepath.Join(scratch, "ladder-front")); err != nil {
		return nil, err
	}
	defer l.front.close()
	l.in = l.front.d.in
	if l.core, err = newCore(spec, seed); err != nil {
		return nil, err
	}
	if err := l.core.withEngine(filepath.Join(scratch, "ladder-core")); err != nil {
		return nil, err
	}
	defer l.core.close()
	for _, ladder := range []func() error{
		l.read,
		func() error { return l.write(spec, seed, filepath.Join(scratch, "ladder-wal")) },
		func() error { return l.recovery(walDir) },
		func() error { return l.batch(spec, seed) },
	} {
		if err := ladder(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// read climbs the two read ladders. Depth 2 makes the Matcher calls
// handleSame and handleEntities make; depth 3 is what those resolve to
// below the Matcher's lock. A fifth rung repeats depth 0 without a
// clock read per request: tracing overhead is depth 0 traced over that.
func (l *ladders) read() error {
	m, front, core := l.front.d.m, l.front, l.core
	sames := l.in.sames[:min(l.sz.sames, len(l.in.sames))]
	sameHTTP := make([]httpOp, len(sames))
	for i, so := range sames {
		sameHTTP[i] = httpOp{method: "GET", path: samePath(so)}
	}
	sameRec := prepare(sameHTTP)
	roundTrip := func(ops []httpOp) func(int) error {
		return func(i int) error { return front.roundTrip(ops[i], &l.buf) }
	}
	sameRungs := []rung{
		{name: "http", parent: -1, do: roundTrip(sameHTTP)},
		{name: "serve", parent: 0, do: func(i int) error { return front.serveHTTP(sameRec[i]) }},
		{name: "graphkeys", parent: 1, do: func(i int) error {
			m.Canonical(sames[i].a)
			m.Canonical(sames[i].b)
			if got := m.Same(sames[i].a, sames[i].b); got != sames[i].want {
				return gatef("Matcher.Same(%s, %s) = %v, want %v", sames[i].a, sames[i].b, got, sames[i].want)
			}
			m.Seq()
			return nil
		}},
		{name: "graph+eqrel", parent: 2, do: func(i int) error {
			if got := core.sameLeaf(sames[i].a, sames[i].b); got != sames[i].want {
				return gatef("eqrel.Reader.Same(%s, %s) = %v, want %v", sames[i].a, sames[i].b, got, sames[i].want)
			}
			return nil
		}},
		{name: "http, untraced", parent: -1, block: true, do: roundTrip(sameHTTP)},
	}
	durs, err := l.t.climb(len(sames), readChunk, sameRungs)
	if err != nil {
		return err
	}
	self := selfTimes(sameRungs, durs)
	l.budget("same", sameRungs, self)
	l.put("http.same_self_us", self[0]/1e3, "us", len(sames))
	l.put("serve.same_self_us", self[1]/1e3, "us", len(sames))
	l.put("graphkeys.same_self_ns", self[2], "ns", len(sames))
	l.put("trace.overhead_frac", sum(durs[0])/sum(durs[4])-1, "ratio", len(sames))

	ents := l.in.ents[:min(l.sz.ents, len(l.in.ents))]
	entHTTP := make([]httpOp, len(ents))
	for i, eo := range ents {
		entHTTP[i] = httpOp{method: "GET", path: entitiesPath(eo)}
	}
	entRec := prepare(entHTTP)
	entRungs := []rung{
		{name: "http", parent: -1, do: roundTrip(entHTTP)},
		{name: "serve", parent: 0, do: func(i int) error { return front.serveHTTP(entRec[i]) }},
		{name: "graphkeys", parent: 1, do: func(i int) error {
			if got := len(m.EntitiesWith(ents[i].p, ents[i].v)); got != len(ents[i].want) {
				return gatef("Matcher.EntitiesWith(%s, %s) has %d entities, want %d", ents[i].p, ents[i].v, got, len(ents[i].want))
			}
			m.Seq()
			return nil
		}},
		{name: "graph", parent: 2, do: func(i int) error {
			if got := core.entitiesLeaf(ents[i].p, ents[i].v); got != len(ents[i].want) {
				return gatef("graph.ValueSubjects(%s, %s) has %d entities, want %d", ents[i].p, ents[i].v, got, len(ents[i].want))
			}
			return nil
		}},
	}
	if durs, err = l.t.climb(len(ents), readChunk, entRungs); err != nil {
		return err
	}
	self = selfTimes(entRungs, durs)
	l.budget("entities", entRungs, self)
	l.put("http.entities_self_us", self[0]/1e3, "us", len(ents))
	l.put("serve.entities_self_us", self[1]/1e3, "us", len(ents))
	l.put("graphkeys.entities_with_self_ns", self[2], "ns", len(ents))

	// One call of these is shorter than a clock read, so a block of
	// microOps calls is one span.
	names := make([]string, 0, 1024)
	for _, so := range sames[:min(1024, len(sames))] {
		names = append(names, so.a)
	}
	micro := l.sz.microOps
	lookups, err := l.t.block(fmt.Sprintf("graph.Entity x%d", micro), l.sz.reps, func() error { core.entityLookups(names, micro); return nil })
	if err != nil {
		return err
	}
	l.put("graph.entity_lookup_ns", median(lookups)/float64(micro), "ns", l.sz.reps*micro)
	rsames, err := l.t.block(fmt.Sprintf("eqrel.Reader.Same x%d", micro), l.sz.reps, func() error { core.readerSames(names, micro); return nil })
	if err != nil {
		return err
	}
	l.put("eqrel.reader_same_ns", median(rsames)/float64(micro), "ns", l.sz.reps*micro)

	// Result building, the part of Match that is not the chase.
	results, err := l.t.block("graphkeys.Matcher.Result", l.sz.reps, func() error { m.Result(); return nil })
	if err != nil {
		return err
	}
	l.put("graphkeys.build_result_ms", median(results)/1e6, "ms", l.sz.reps)
	return nil
}

// write climbs the write ladder. Depths 0-2 replay the flips on the
// front instance, depth 3 on the core instance, and depth 3's two
// children on a bare graph and a bare WAL. Then the batched entry
// points, one span per batch.
func (l *ladders) write(spec inputSpec, seed int64, walDir string) error {
	m, front, core := l.front.d.m, l.front, l.core
	flips := l.in.roundTripFlips(l.sz.writes/2, flipsPerChunk)
	writeHTTP := writeOps(flips)
	writeRec := prepare(writeHTTP)
	bare, err := newCore(spec, seed)
	if err != nil {
		return err
	}
	store, err := walOpen(walDir)
	if err != nil {
		return err
	}
	defer store.Close()
	// The initial chase of the core instance is the only full
	// candidate stream in the run.
	before := core.counters()
	l.put("match.candidates_streamed", float64(before.Counters["match.candidates_streamed"]), "count", 1)
	l.put("match.candidates_pruned", float64(before.Counters["match.candidates_pruned"]), "count", 1)
	rungs := []rung{
		{name: "http", parent: -1, do: func(i int) error { return front.roundTrip(writeHTTP[i], &l.buf) }},
		{name: "serve", parent: 0, do: func(i int) error { return front.serveHTTP(writeRec[i]) }},
		{name: "graphkeys", parent: 1, do: func(i int) error {
			_, _, err := m.Apply(toDelta(flips[i]))
			return err
		}},
		{name: "inc", parent: 2, do: func(i int) error { return core.incApply(flips[i]) }},
		{name: "graph", parent: 3, do: func(i int) error { return bare.graphApplyDelta(flips[i]) }},
		{name: "wal", parent: 3, do: func(i int) error { return walCommit(store, flips[i]) }},
	}
	durs, err := l.t.climb(len(flips), 2*flipsPerChunk, rungs)
	if err != nil {
		return err
	}
	after := core.counters()
	self := selfTimes(rungs, durs)
	l.budget("apply", rungs, self)
	n := len(flips)
	for k, name := range []string{"http.apply_self_us", "serve.apply_self_us", "graphkeys.apply_self_us", "inc.apply_self_us", "graph.apply_delta_us", "wal.commit_us"} {
		l.put(name, self[k]/1e3, "us", n)
	}

	// Counts of the sequential depth-3 replay: they repeat exactly.
	cdiff := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l.put("inc.checked_per_delta", cdiff("inc.checked")/float64(n), "count", n)
	l.put("inc.identified_per_checked", ratio(cdiff("inc.identified"), cdiff("inc.checked")), "ratio", n)
	l.put("inc.suspects_per_delta", cdiff("inc.suspects")/float64(n), "count", n)
	l.put("inc.region_per_delta", cdiff("inc.region")/float64(n), "count", n)
	l.put("inc.rounds", cdiff("inc.rounds"), "count", n)
	l.put("match.postings_scanned_per_delta", cdiff("match.postings_scanned")/float64(n), "count", n)
	l.put("wal.records", cdiff("wal.records"), "count", n)
	wd0, wd1 := before.Histograms["inc.worklist_depth"], after.Histograms["inc.worklist_depth"]
	l.put("inc.worklist_depth_mean", ratio(float64(wd1.Sum-wd0.Sum), float64(wd1.Count-wd0.Count)), "count", int(wd1.Count-wd0.Count))

	batch := l.in.roundTripFlips(l.sz.batch, l.sz.batch)
	half := len(batch) / 2
	batches := [][]flipOp{batch[:half], batch[half:]}
	perDelta := func(ds []float64) float64 { return median(ds) / float64(half) / 1e3 }
	applyBatch, err := l.t.block(fmt.Sprintf("graphkeys.Matcher.ApplyBatch x%d", half), 2*l.sz.batchRounds, blockOver(batches, func(fs []flipOp) error {
		ds := make([]*graphkeys.Delta, len(fs))
		for i, f := range fs {
			ds[i] = toDelta(f)
		}
		_, _, err := m.ApplyBatch(ds)
		return err
	}))
	if err != nil {
		return err
	}
	l.put("graphkeys.apply_batch_us_per_delta", perDelta(applyBatch), "us", len(applyBatch)*half)
	applyAll, err := l.t.block(fmt.Sprintf("inc.Engine.ApplyAll x%d", half), 2*l.sz.batchRounds, blockOver(batches, core.incApplyAll))
	if err != nil {
		return err
	}
	l.put("inc.apply_all_us_per_delta", perDelta(applyAll), "us", len(applyAll)*half)
	return nil
}

// blockOver returns a block body that walks batches cyclically.
func blockOver(batches [][]flipOp, fn func([]flipOp) error) func() error {
	i := 0
	return func() error {
		b := batches[i%len(batches)]
		i++
		return fn(b)
	}
}

// recovery replays the directory the churn stage copied, one layer at
// a time, the way OpenMatcher does.
func (l *ladders) recovery(walDir string) error {
	rec, err := newRecoveryProbe(walDir, l.in.keysText)
	if err != nil {
		return err
	}
	defer rec.close()
	replay, err := l.t.block("wal.Replay", 1, func() error { _, err := rec.walReplay(); return err })
	if err != nil {
		return err
	}
	l.put("wal.replay_ms", replay[0]/1e6, "ms", 1)
	if err := rec.open(); err != nil {
		return err
	}
	incNew, err := l.t.block("inc.New", 1, rec.incNew)
	if err != nil {
		return err
	}
	l.put("inc.new_ms", incNew[0]/1e6, "ms", 1)
	replayAll, err := l.t.block("inc.Engine.ApplyAll(records, 1)", 1, rec.replayApplyAll)
	if err != nil {
		return err
	}
	l.put("inc.replay_apply_all_ms", replayAll[0]/1e6, "ms", 1)
	return nil
}

// batch times the layers of a from-scratch Match, bottom up.
func (l *ladders) batch(spec inputSpec, seed int64) error {
	in, reps := l.in, l.sz.reps
	timeMS := func(name, span string, n int, fn func() error) error {
		ds, err := l.t.block(span, n, fn)
		if err == nil {
			l.put(name, median(ds)/1e6, "ms", n)
		}
		return err
	}
	if err := timeMS("keys.parse_ms", "keys.Parse", reps, func() error { return keysParse(in.keysText) }); err != nil {
		return err
	}
	if err := timeMS("graph.load_text_ms", "graph.ParseText", reps, func() error { return graphLoadText(bytes.NewReader(in.graphText)) }); err != nil {
		return err
	}
	bp, err := newBatchProbe(spec, seed)
	if err != nil {
		return err
	}
	if err := timeMS("match.new_ms", "match.New", reps, bp.matchNew); err != nil {
		return err
	}
	var ncand int
	if err := timeMS("match.candidate_stream_ms", "match.CandidateStream", reps, func() error { ncand = bp.drainCandidates(); return nil }); err != nil {
		return err
	}
	l.put("match.candidates", float64(ncand), "count", 1)
	sample := bp.sampleOf(l.sz.checks)
	var iso int
	checks, err := l.t.block(fmt.Sprintf("match.Identified x%d", len(sample)), reps, func() error { iso = bp.checkPairs(sample); return nil })
	if err != nil {
		return err
	}
	l.put("match.check_ns", median(checks)/float64(max(len(sample), 1)), "ns", reps*len(sample))
	l.put("match.iso_steps_per_check", float64(iso)/float64(max(len(sample), 1)), "count", len(sample))
	var cs chaseStats
	runChase := func(p int) func() error {
		return func() error {
			var err error
			if cs, err = bp.chaseRun(p); err == nil && cs.pairs != len(in.expected) {
				err = gatef("chase.Run(Parallelism %d) found %d pairs, planted %d", p, cs.pairs, len(in.expected))
			}
			return err
		}
	}
	if err := timeMS("chase.run_seq_ms", "chase.Run(Parallelism 1)", reps, runChase(1)); err != nil {
		return err
	}
	l.put("chase.iso_steps", float64(cs.isoSteps), "count", 1)
	l.put("chase.steps", float64(cs.steps), "count", 1)
	l.put("chase.candidates", float64(cs.candidates), "count", 1)
	if err := timeMS("chase.run_parallel_ms", "chase.Run(Parallelism default)", reps, runChase(0)); err != nil {
		return err
	}
	items := l.sz.items
	fan, err := l.t.block(fmt.Sprintf("engine.Parallel x%d", items), 4*reps, func() error { engineParallel(items); return nil })
	if err != nil {
		return err
	}
	l.put("engine.parallel_dispatch_ns_per_item", median(fan)/float64(items), "ns", 4*reps*items)
	return nil
}
