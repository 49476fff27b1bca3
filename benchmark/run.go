package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"graphkeys"
)

// sizes fixes how much work each stage does. Every run takes its
// workload's input through all stages — batch match, durable churn
// with recovery, serving reads, serving reads beside writes — because
// every end-to-end metric is reported on every workload. An untraced
// run splits its -seconds among the four by `shares`; a traced run
// only needs registry readings from them and runs them at the fixed
// probe sizes. Either way the measuring happens in `rounds` slices that
// take turns across stages.
type sizes struct {
	rounds          int
	setups          int           // timed emserve set-ups per untraced run; setup_s is their median
	shares          shares        // of -seconds, per stage
	recoveries      int           // recoveries of the copied directory per round
	deltasPerSecond int           // the churn stage pushes its seconds x this many deltas: a fixed count, so WAL length, final state and recovery compare run to run
	probeDeltas     int           // churn deltas of a traced run
	probeClosed     time.Duration // closed-loop read time of a traced run
	probeRead       time.Duration // open-loop read time of a traced run
	probeMixed      time.Duration // open-loop mixed time of a traced run
	warm            time.Duration // discarded start of every serve slice
	ladders         ladderSizes
}

// shares splits an untraced run's -seconds. Match takes most: three
// engines, and a repetition of the slowest takes 1.5 s on the DBpedia
// input. The acknowledged writes arrive at 50/s and need the time to
// add up to a sample. Reads come by the thousand per second and churn
// is only there to fill a log for recovery, so they take least. The
// rest of a run is set-ups, recoveries and gates, which are fixed work.
type shares struct{ batch, churn, read, mixed float64 }

var fullSizes = sizes{
	rounds:          6,
	setups:          3,
	shares:          shares{batch: 0.27, churn: 0.10, read: 0.10, mixed: 0.25},
	recoveries:      2,
	deltasPerSecond: 4000,
	probeDeltas:     12000,
	probeClosed:     1800 * time.Millisecond,
	probeRead:       1800 * time.Millisecond,
	probeMixed:      3000 * time.Millisecond,
	warm:            200 * time.Millisecond,
	ladders: ladderSizes{
		sames: 8000, ents: 2000, writes: 300, batch: 256, batchRounds: 3,
		checks: 10000, reps: 3, items: 10000, microOps: 100000,
	},
}

var smokeSizes = sizes{
	rounds:          2,
	setups:          2,
	shares:          shares{batch: 0.25, churn: 0.25, read: 0.25, mixed: 0.25},
	recoveries:      1,
	deltasPerSecond: 800,
	probeDeltas:     64,
	probeClosed:     100 * time.Millisecond,
	probeRead:       200 * time.Millisecond,
	probeMixed:      200 * time.Millisecond,
	warm:            20 * time.Millisecond,
	ladders: ladderSizes{
		sames: 200, ents: 50, writes: 20, batch: 16, batchRounds: 1,
		checks: 200, reps: 1, items: 1000, microOps: 1000,
	},
}

// Inputs, both of about 35k triples. dbpedia-chains: 495 sparse types
// and 106 keys, two populous recursive chains among them. google-chains:
// few types, 36 keys, two smaller chains.
func specFor(workload string, smoke bool) inputSpec {
	switch {
	case smoke && workload == wDBpedia:
		return inputSpec{flavor: "dbpedia", scale: 0.5, perType: 24}
	case smoke:
		return inputSpec{flavor: "google", scale: 1, perType: 24}
	case workload == wDBpedia:
		return inputSpec{flavor: "dbpedia", scale: 8, perType: 1200}
	default:
		return inputSpec{flavor: "google", scale: 16, perType: 384}
	}
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	scratch  string // directory for WAL directories and input files; removed after the run
	emserve  string // path of the emserve binary
}

// runResult is one run: the contract's four keys plus what the
// envelope and the trace file carry.
type runResult struct {
	Attempted int64
	Failed    int64
	Speed     float64 // untraced: the factor every timing was divided by
	Metrics   map[string]sample
	Spans     []span
	Budget    map[string][]budgetRow
	Input     string
}

func nproc() int { return runtime.NumCPU() }

// runOnce runs one workload once. With trace off it fills every
// end-to-end metric; with trace on, every per-layer metric.
func runOnce(cfg runConfig) (*runResult, error) {
	if !slices.ContainsFunc(workloads, func(w workloadDecl) bool { return w.Name == cfg.workload }) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz := fullSizes
	if cfg.smoke {
		sz = smokeSizes
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(dir)
		settle()
	}()
	r := &runner{cfg: cfg, sz: sz, dir: dir, spec: specFor(cfg.workload, cfg.smoke), res: &runResult{Metrics: make(map[string]sample)}}
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

type runner struct {
	cfg  runConfig
	sz   sizes
	dir  string
	spec inputSpec
	res  *runResult
	n    int // directory counter
}

func (r *runner) subdir(name string) string {
	r.n++
	return filepath.Join(r.dir, fmt.Sprintf("%s-%d", name, r.n))
}

func (r *runner) window() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

// stages is the stages of one run; reads and mixed traffic are two
// measurements of the one serve stage.
type stages struct {
	batch *batchStage
	churn *churnStage
	serve *serveStage
	speed speedometer
}

// runStages runs the stages on the workload's input. An untraced run
// gives batch, churn, reads and mixed traffic their shares of the
// window; a traced run has no batch stage (the batch ladder covers Match
// layer by layer) and runs the others at probe size, the reads on
// nproc connections.
//
// Every stage is set up, then the rounds take turns: a slice of each
// stage per round. Before each of the later rounds one more emserve is
// started and stopped on the side, so that setup_s, too, samples
// several moments of the run.
func (r *runner) runStages(traced bool) (*stages, error) {
	sz, rounds := r.sz, r.sz.rounds
	per := func(total time.Duration) time.Duration { return total / time.Duration(rounds) }
	share := func(f float64) time.Duration { return time.Duration(f * float64(r.window())) }
	st := &stages{
		batch: &batchStage{spec: r.spec, seed: r.cfg.seed, budget: per(share(sz.shares.batch))},
		churn: &churnStage{spec: r.spec, seed: r.cfg.seed, newDir: func() string { return r.subdir("churn") },
			producers: nproc(), perRound: int(share(sz.shares.churn).Seconds()*float64(sz.deltasPerSecond)) / rounds, rounds: rounds, recoveries: sz.recoveries},
		serve: &serveStage{spec: r.spec, seed: r.cfg.seed, newDir: func() string { return r.subdir("serve") },
			bin: r.cfg.emserve, readConns: max(nproc()-1, 1), warm: sz.warm, readWindow: per(share(sz.shares.read)), mixedWindow: per(share(sz.shares.mixed))},
	}
	// Whatever goes wrong, no emserve child outlives the run.
	defer func() {
		if st.serve.s != nil {
			st.serve.s.stop()
		}
	}()
	order := []stage{st.batch, st.churn, st.serve}
	if traced {
		st.churn.perRound = sz.probeDeltas / rounds
		st.serve.closedConns, st.serve.closedWindow = nproc(), per(sz.probeClosed)
		st.serve.readWindow, st.serve.mixedWindow = per(sz.probeRead), per(sz.probeMixed)
		order = order[1:]
	}

	for _, s := range order {
		if err := s.setup(); err != nil {
			return nil, err
		}
	}
	for round := 0; round < rounds; round++ {
		if !traced && round > 0 && len(st.serve.setupSecs) < sz.setups {
			if err := st.serve.throwaway(); err != nil {
				return nil, err
			}
		}
		for _, s := range order {
			settle()
			st.speed.sample()
			if err := s.measure(round); err != nil {
				return nil, err
			}
			st.speed.sample()
		}
	}
	for _, s := range order {
		if err := s.finish(); err != nil {
			return nil, err
		}
	}
	in := st.churn.d.in
	r.res.Input = fmt.Sprintf("%s scale %g + chains %d/type: %d triples, %d entities, %d keys, %d planted pairs",
		r.spec.flavor, r.spec.scale, r.spec.perType, in.triples, in.entities, st.churn.d.ks.Len(), len(in.expected))
	attempted, failed := st.serve.counts()
	r.res.Attempted = st.batch.calls + int64(st.churn.deltas) + attempted
	r.res.Failed = failed
	return st, nil
}

// settle lets the leftovers of earlier work finish before something is
// timed: garbage is collected, and dirty pages and the discards of
// deleted files (the sandbox mounts ext4 with discard) are written out
// now, not by the journal commit of some later fsync on the clock.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// kindLats picks one request kind's latencies out of every slice.
func kindLats(slices []*merged, kind int) [][]float64 {
	out := make([][]float64, len(slices))
	for i, sl := range slices {
		out[i] = sl.lats[kind]
	}
	return out
}

// readQPS is completed reads per second in the best slice.
func readQPS(st *stages) sample {
	var per []float64
	done := 0
	for _, sl := range st.serve.closedSlices {
		n := len(sl.lats[kindSame]) + len(sl.lats[kindEntities]) - int(sl.failed)
		per = append(per, float64(n)/st.serve.closedWindow.Seconds())
		done += n
	}
	return counted(slices.Max(per), "1/s", done)
}

func (r *runner) untraced() error {
	st, err := r.runStages(false)
	if err != nil {
		return err
	}
	// Every timing is the median of its observations, divided by the
	// run's speed factor (see speed.go); sizes are as read.
	r.res.Speed = st.speed.factor()
	m := r.res.Metrics
	timing := func(s sample) sample { return s.scaled(1 / r.res.Speed) }
	m["setup_s"] = timing(summarize(st.serve.setupSecs, 0.5, "s"))
	for _, be := range batchEngines {
		m[be.metric] = timing(summarize(st.batch.secs[be.metric], 0.5, "s"))
	}
	m["recover_s"] = timing(summarize(st.churn.recoverSecs, 0.5, "s"))
	m["wal_bytes_per_delta"] = counted(st.churn.walPerDelta, "B", st.churn.deltas)
	m["same_p50_us"] = timing(pooled(kindLats(st.serve.readSlices, kindSame), "us"))
	m["same_mixed_p50_us"] = timing(pooled(kindLats(st.serve.mixedSlices, kindSame), "us"))
	m["apply_p50_us"] = timing(pooled(kindLats(st.serve.mixedSlices, kindApply), "us"))
	m["peak_rss_mb"] = summarize(st.serve.setupRSSMB, 0.5, "MB")
	return nil
}

// traced runs the churn and serve stages at probe size for their
// registry readings, then the ladders for the span-derived self times.
func (r *runner) traced() error {
	st, err := r.runStages(true)
	if err != nil {
		return err
	}
	t := newTracer()
	lo, err := runLadders(t, r.spec, r.cfg.seed, r.sz.ladders, r.dir, st.churn.copyDir)
	if err != nil {
		return err
	}
	r.res.Spans, r.res.Budget = t.spans, lo.budget
	m := r.res.Metrics
	for _, d := range perLayer {
		if s, ok := lo.metrics[d.Name]; ok {
			m[d.Name] = s
		}
	}

	// Registry readings: serve.* from the /vars scrape of the emserve
	// child, everything else from Matcher.Metrics() of the churn stage.
	vars, reg := st.serve.vars, st.churn.metrics
	histUS := func(src graphkeys.Metrics, name string, pick func(h histSnap) float64) sample {
		h := src.Histograms[name]
		return sample{Value: pick(h) / 1e3, Unit: "us", N: int(h.Count), Q1: float64(h.P50) / 1e3, Q3: float64(h.P99) / 1e3}
	}
	p50 := func(h histSnap) float64 { return float64(h.P50) }
	p99 := func(h histSnap) float64 { return float64(h.P99) }
	mean := func(h histSnap) float64 { return h.Mean() }
	m["serve.same_server_p50_us"] = histUS(vars, "serve.same_ns", p50)
	m["serve.same_server_p99_us"] = histUS(vars, "serve.same_ns", p99)
	m["serve.apply_server_p50_us"] = histUS(vars, "serve.apply_ns", p50)
	reads := 0
	var late [][]float64
	for _, sl := range st.serve.closedSlices {
		reads += int(sl.attempted)
	}
	for _, sl := range st.serve.mixedSlices {
		late = append(late, sl.genLate)
	}
	m["serve.cpu_s_per_kreq"] = counted(st.serve.cpuSecs/(float64(reads)/1000), "s", reads)
	m["client.gen_late_p99_us"] = sliceTail(late, 0.99, "us")
	m["client.gen_late_max_us"] = sliceTail(late, 1, "us")

	// Tails, slice by slice: /same beside the writer, /same alone, and
	// the difference, which is what readers lose to Matcher.mu.
	mixedP99 := sliceTail(kindLats(st.serve.mixedSlices, kindSame), 0.99, "us")
	readP99 := sliceTail(kindLats(st.serve.readSlices, kindSame), 0.99, "us")
	m["same_p99_us"] = mixedP99
	m["same_alone_p99_us"] = readP99
	m["apply_p99_us"] = sliceTail(kindLats(st.serve.mixedSlices, kindApply), 0.99, "us")
	m["read_qps"] = readQPS(st)
	m["graphkeys.mu_read_wait_p99_us"] = scalar(mixedP99.Value-readP99.Value, "us")

	m["ingest_deltas_per_s"] = counted(slices.Max(st.churn.rates), "1/s", st.churn.deltas)
	m["matcher.apply_batch_p50_us"] = histUS(reg, "matcher.apply_batch_ns", p50)
	for _, phase := range []string{"plan", "plan_hold", "lower", "commit_wait", "admission_wait", "shard_lock_wait"} {
		m["graph."+phase+"_us_mean"] = histUS(reg, "graph."+phase+"_ns", mean)
	}
	m["wal.fsync_p50_us"] = histUS(reg, "wal.fsync_ns", p50)
	m["wal.fsync_p99_us"] = histUS(reg, "wal.fsync_ns", p99)
	sizeMean := func(name string) sample {
		h := reg.Histograms[name]
		return sample{Value: h.Mean(), Unit: "count", N: int(h.Count), Q1: float64(h.P50), Q3: float64(h.P99)}
	}
	m["matcher.batch_size_mean"] = sizeMean("matcher.batch_size")
	m["writer.batch_size_mean"] = sizeMean("writer.batch_size")
	m["wal.group_size_mean"] = sizeMean("wal.group_size")
	for _, name := range []string{
		"writer.batches", "writer.failed", "wal.rewinds",
		"graph.plan_retries", "graph.plan_fallbacks", "graph.deltas_noop",
		"engine.parallel_calls", "engine.pool_steals",
	} {
		m[name] = scalar(float64(reg.Counters[name]), "count")
	}
	perCall := 0.0
	if calls := reg.Counters["engine.parallel_calls"]; calls > 0 {
		perCall = float64(reg.Counters["engine.parallel_items"]) / float64(calls)
	}
	m["engine.parallel_items_per_call"] = scalar(perCall, "count")
	m["machine.speed_factor"] = counted(st.speed.factor(), "ratio", len(st.speed.loops))
	m["failed_frac"] = scalar(float64(r.res.Failed)/float64(max(r.res.Attempted, 1)), "ratio")
	return nil
}
