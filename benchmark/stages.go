package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"graphkeys"
)

// errGate marks a violated correctness gate: the run prints no numbers
// and exits non-zero.
type errGate struct{ msg string }

func (e errGate) Error() string { return "correctness gate: " + e.msg }

func gatef(format string, args ...any) error { return errGate{fmt.Sprintf(format, args...)} }

// matchPairs renders a Result's matches as canonical sorted label
// pairs, so results of differently numbered graphs compare.
func matchPairs(res *graphkeys.Result) [][2]string {
	out := make([][2]string, len(res.Matches))
	for i, m := range res.Matches {
		out[i] = canonPair(m.A, m.B)
	}
	sortPairs(out)
	return out
}

// batchInst is the batch stage set up: input generated, graph loaded
// from text, keys parsed — everything Match needs.
type batchInst struct {
	in *input
	g  *graphkeys.Graph
	ks *graphkeys.KeySet
}

func setupBatch(spec inputSpec, seed int64) (*batchInst, error) {
	in, err := buildInput(spec, seed)
	if err != nil {
		return nil, err
	}
	g, err := graphkeys.LoadGraph(bytes.NewReader(in.graphText))
	if err != nil {
		return nil, err
	}
	ks, err := graphkeys.ParseKeys(in.keysText)
	if err != nil {
		return nil, err
	}
	return &batchInst{in: in, g: g, ks: ks}, nil
}

var batchEngines = []struct {
	metric string
	engine graphkeys.Engine
}{
	{"match_s", graphkeys.Chase},
	{"match_parallel_s", graphkeys.ParallelChase},
	{"match_vcopt_s", graphkeys.VertexCentricOpt},
}

// stage is one of the stages every run takes its input through. A run
// sets each stage up once, measures it in `rounds` slices that take
// turns with the other stages' slices — the sandbox's speed drifts over
// tens of seconds, and a metric sampled at several moments of a run
// repeats far better than one sampled at a single moment — and
// finishes it, which checks its correctness gates.
type stage interface {
	setup() error            // bring the instance up
	measure(round int) error // one slice of measurement
	finish() error           // gates, and whatever is measured once at the end
}

// batchStage times graphkeys.Match on the loaded graph.
type batchStage struct {
	spec   inputSpec
	seed   int64
	budget time.Duration // per round, split evenly over the engines

	inst  *batchInst
	secs  map[string][]float64 // per engine metric, seconds per Match
	calls int64
}

func (b *batchStage) setup() (err error) {
	b.secs = make(map[string][]float64)
	b.inst, err = setupBatch(b.spec, b.seed)
	return err
}

// match runs one Match; every result, timed or not, must equal the
// planted pairs.
func (b *batchStage) match(e graphkeys.Engine) (time.Duration, error) {
	t0 := time.Now()
	res, err := graphkeys.Match(b.inst.g, b.inst.ks, graphkeys.Options{Engine: e})
	d := time.Since(t0)
	b.calls++
	if err != nil {
		return 0, err
	}
	if got := matchPairs(res); !slices.Equal(got, b.inst.in.expected) {
		return 0, gatef("%v found %d pairs, planted %d (or different ones)", e, len(got), len(b.inst.in.expected))
	}
	return d, nil
}

// measure times Match round-robin over the three engines. Each engine
// repeats until one more repetition as long as its last would take it
// past its third of the round's budget, and at least once. Every round
// starts with one untimed warm-up Match: the first Match after the
// other stages' slices runs half as long again as the ones after it
// (the heap it grows into was given back to the OS meanwhile).
func (b *batchStage) measure(int) error {
	if _, err := b.match(graphkeys.Chase); err != nil {
		return err
	}
	spent := make([]time.Duration, len(batchEngines))
	last := make([]time.Duration, len(batchEngines))
	share := b.budget / time.Duration(len(batchEngines))
	for more := true; more; {
		more = false
		for i, be := range batchEngines {
			if spent[i] > 0 && spent[i]+last[i] > share {
				continue
			}
			d, err := b.match(be.engine)
			if err != nil {
				return err
			}
			spent[i] += d
			last[i] = d
			b.secs[be.metric] = append(b.secs[be.metric], d.Seconds())
			more = true
		}
	}
	return nil
}

func (b *batchStage) finish() error { return nil }

// durableInst is the churn stage set up: a durable fsync Matcher seeded
// with the input through its WAL and snapshotted, as emserve seeds a
// fresh directory.
type durableInst struct {
	in  *input
	ks  *graphkeys.KeySet
	dir string
	m   *graphkeys.Matcher
}

var durableOpts = graphkeys.Options{Durability: graphkeys.DurabilityFsync}

func setupDurable(spec inputSpec, seed int64, dir string) (*durableInst, error) {
	in, err := buildInput(spec, seed)
	if err != nil {
		return nil, err
	}
	ks, err := graphkeys.ParseKeys(in.keysText)
	if err != nil {
		return nil, err
	}
	g, err := graphkeys.LoadGraph(bytes.NewReader(in.graphText))
	if err != nil {
		return nil, err
	}
	m, err := graphkeys.OpenMatcher(dir, ks, durableOpts)
	if err != nil {
		return nil, err
	}
	seed1 := graphkeys.NewDelta()
	g.EachEntity(func(id graphkeys.EntityID, typeName string) { seed1.AddEntity(id, typeName) })
	g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
		if isValue {
			seed1.AddValueTriple(s, p, o)
		} else {
			seed1.AddEntityTriple(s, p, o)
		}
	})
	if _, _, err := m.Apply(seed1); err != nil {
		m.Close()
		return nil, err
	}
	if err := m.Snapshot(); err != nil {
		m.Close()
		return nil, err
	}
	return &durableInst{in: in, ks: ks, dir: dir, m: m}, nil
}

func (d *durableInst) close() error { return d.m.Close() }

func toDelta(f flipOp) *graphkeys.Delta {
	if f.add {
		return graphkeys.NewDelta().AddValueTriple(f.s, f.p, f.v)
	}
	return graphkeys.NewDelta().RemoveValueTriple(f.s, f.p, f.v)
}

// churnStage pushes flip deltas through one Writer of a durable fsync
// Matcher, closed by the Writer's backpressure, and recovers a copy of
// its directory.
type churnStage struct {
	spec       inputSpec
	seed       int64
	newDir     func() string
	producers  int
	perRound   int // deltas per round, all producers together
	rounds     int
	recoveries int // per round

	d       *durableInst
	w       *graphkeys.Writer
	streams [][]flipOp // one per producer, long enough for every round
	pos     int        // deltas each producer has pushed
	size0   int64      // wal.log size and seq before the first delta
	seq0    uint64

	rates       []float64 // deltas/s, one per round
	deltas      int
	walPerDelta float64
	metrics     graphkeys.Metrics

	// The directory is copied once, after the first round's deltas, and
	// the copy recovered `recoveries` times at the end of every round:
	// recover_s samples several moments of the run on one and the same
	// input.
	copyDir     string
	copied      [][2]string // the live result and seq when the copy was made
	copiedSeq   uint64
	recoverSecs []float64
}

func (c *churnStage) setup() (err error) {
	if c.d, err = setupDurable(c.spec, c.seed, c.newDir()); err != nil {
		return err
	}
	// A remove and its re-add must never meet in one Writer batch,
	// whose internal order is unspecified. They are a producer's whole
	// share of the triples apart; when that is no more than the
	// Writer's queue bound (1024), the stream stops after one pass.
	n, share := c.perRound*c.rounds/c.producers, len(c.d.in.flips)/c.producers
	if share <= 1024 {
		n = min(n, share)
	}
	c.streams = make([][]flipOp, c.producers)
	for p := range c.streams {
		c.streams[p] = c.d.in.flipStream(p, c.producers, n)
	}
	if c.size0, err = fileSize(filepath.Join(c.d.dir, "wal.log")); err != nil {
		return err
	}
	c.seq0 = c.d.m.Seq()
	c.w = c.d.m.NewWriter()
	return nil
}

// measure has every producer push its next perRound/producers deltas
// and waits for Flush — one rate sample — and then recovers the copy.
// The Writer's queue and the pool's workers are the system's own; the
// benchmark adds the nproc producers, which mostly wait for room.
func (c *churnStage) measure(int) error {
	errs := make([]error, c.producers)
	pushed := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for p, stream := range c.streams {
		next := stream[min(c.pos, len(stream)):min(c.pos+c.perRound/c.producers, len(stream))]
		pushed += len(next)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, f := range next {
				if errs[p] = c.w.Apply(toDelta(f)); errs[p] != nil {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	ferr := c.w.Flush()
	wall := time.Since(t0)
	for _, err := range append(errs, ferr) {
		if err != nil {
			return gatef("writer: %v", err)
		}
	}
	c.pos += c.perRound / c.producers
	c.deltas += pushed
	if pushed > 0 {
		c.rates = append(c.rates, float64(pushed)/wall.Seconds())
	}
	for i := 0; i < c.recoveries; i++ {
		if err := c.recover(); err != nil {
			return err
		}
	}
	return nil
}

// recover opens the copied directory with OpenMatcher and times it
// until Result() returns. The copy is made on the first call, while
// the directory is open — what kill -9 leaves, OS cache intact.
// Recovery only reads the copy. Gate: the recovered matcher is at the
// seq and result the live one had when the copy was made.
func (c *churnStage) recover() error {
	if c.copyDir == "" {
		c.copyDir = c.d.dir + ".copy"
		c.copied, c.copiedSeq = matchPairs(c.d.m.Result()), c.d.m.Seq()
		if err := copyDir(c.d.dir, c.copyDir); err != nil {
			return err
		}
	}
	t0 := time.Now()
	m, err := graphkeys.OpenMatcher(c.copyDir, c.d.ks, durableOpts)
	if err != nil {
		return gatef("recovering the copy: %v", err)
	}
	res := m.Result()
	c.recoverSecs = append(c.recoverSecs, time.Since(t0).Seconds())
	recovered, seq := matchPairs(res), m.Seq()
	if err := m.Close(); err != nil {
		return err
	}
	if seq != c.copiedSeq || !slices.Equal(recovered, c.copied) {
		return gatef("recovered copy is at seq %d with %d pairs, the live matcher was at seq %d with %d", seq, len(recovered), c.copiedSeq, len(c.copied))
	}
	return nil
}

// finish checks the gates of the whole stage: no failed delta, every
// delta logged, and the live result equals a from-scratch Match on the
// final graph.
func (c *churnStage) finish() error {
	d := c.d
	defer d.close()
	st := c.w.Stats()
	if err := c.w.Close(); err != nil {
		return gatef("writer: %v", err)
	}
	if st.Failed != 0 || st.Deltas != c.deltas {
		return gatef("writer processed %d of %d deltas, %d failed", st.Deltas, c.deltas, st.Failed)
	}
	size1, err := fileSize(filepath.Join(d.dir, "wal.log"))
	if err != nil {
		return err
	}
	logged := int(d.m.Seq() - c.seq0)
	if logged != c.deltas {
		return gatef("%d deltas acknowledged but %d logged", c.deltas, logged)
	}
	c.walPerDelta = float64(size1-c.size0) / float64(logged)
	c.metrics = d.m.Metrics()

	live := matchPairs(d.m.Result())
	fresh, err := graphkeys.Match(d.m.Graph(), d.ks, graphkeys.Options{})
	if err != nil {
		return err
	}
	if !slices.Equal(live, matchPairs(fresh)) {
		return gatef("incremental result (%d pairs) differs from Match on the final graph (%d)", len(live), len(fresh.Matches))
	}
	return nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// copyDir copies src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return os.CopyFS(dst, os.DirFS(src))
}
