package main

// The declarations: BENCHMARK.json repeats the names, units, directions
// and bounds (smoke_test.go keeps the two equal); the layer and "moves"
// columns live only here and in README.md, because BENCHMARK.json's
// shape is fixed.

type workloadDecl struct {
	Name string
	Why  string
}

type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only
	Moves  string  // per-layer: the end-to-end metric it should move; end-to-end: what it means
}

const (
	wDBpedia = "dbpedia-chains"
	wGoogle  = "google-chains"
)

var workloads = []workloadDecl{
	{wDBpedia, "DBpedia-flavoured graph, 495 sparse types and 106 keys, plus two populous recursive chains: Match sweeps many keys and the parallel engines wait for the chain types; every stage runs on it."},
	{wGoogle, "Google-flavoured graph, few types and 36 keys, plus two smaller chains, as many triples: the same stages with little key sweep, where the parallel engines gain; the serving input of ISSUE 11."},
}

// Bounds are the largest allowed for everything timed: on the shared
// sandbox the benchmark was built on, whole minutes run 30-40 % slower
// than others, which no estimator inside a one-minute run can remove.
// The byte count is deterministic up to label lengths.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "input generation, then emserve process start to the first 200 on /seq: graph load, key parse, initial chase, WAL seeding, snapshot; median of 3 set-ups; compile time excluded"},
	{Name: "match_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "graphkeys.Match, Engine: Chase (what zero Options gives); best repetition"},
	{Name: "match_parallel_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "graphkeys.Match, Engine: ParallelChase; best repetition"},
	{Name: "match_vcopt_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "graphkeys.Match, Engine: VertexCentricOpt (the paper's fastest, EM^Opt_VC); best repetition"},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "OpenMatcher on the copied directory (snapshot + the first round's deltas) until Result() returns; best repetition"},
	{Name: "wal_bytes_per_delta", Unit: "B", Better: "lower", Bound: 0.05, Moves: "wal.log growth / deltas logged (exact count)"},
	{Name: "same_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Moves: "client-observed GET /same, reads only, one keep-alive connection, median; best slice"},
	{Name: "same_mixed_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Moves: "client-observed GET /same at 500 reads/s beside 50 acknowledged writes/s, median; best slice"},
	{Name: "apply_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Moves: "client-observed POST /apply?wait=1 (acknowledged = durable and visible) at 50 writes/s beside the reads, median; best slice"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Moves: "peak RSS (VmHWM) of an emserve child once it answers: graph and indexes loaded, initial chase done, WAL seeded, snapshot written; median of the 3 set-ups"},
}

var perLayer = []metricDecl{
	{Name: "http.same_self_us", Unit: "us", Better: "lower", Layer: "http", Moves: "same_p50_us, read_qps"},
	{Name: "http.entities_self_us", Unit: "us", Better: "lower", Layer: "http", Moves: "read_qps"},
	{Name: "http.apply_self_us", Unit: "us", Better: "lower", Layer: "http", Moves: "apply_p50_us"},
	{Name: "same_p99_us", Unit: "us", Better: "lower", Layer: "http", Moves: "client-observed GET /same beside the writer, p99 per slice, median over slices; end-to-end in intent, here because it does not repeat within any allowed bound"},
	{Name: "same_alone_p99_us", Unit: "us", Better: "lower", Layer: "http", Moves: "the same with reads only"},
	{Name: "apply_p99_us", Unit: "us", Better: "lower", Layer: "http", Moves: "client-observed POST /apply?wait=1, p99 per slice, median over slices; end-to-end in intent"},
	{Name: "read_qps", Unit: "1/s", Better: "higher", Layer: "http", Moves: "completed reads / slice length under a closed loop of nproc connections, best slice; end-to-end in intent, here because nproc clients beside an nproc-thread server measure the sandbox's scheduler"},
	{Name: "client.gen_late_p99_us", Unit: "us", Better: "lower", Layer: "http", Moves: "none: how late the open-loop generator itself ran"},
	{Name: "client.gen_late_max_us", Unit: "us", Better: "lower", Layer: "http", Moves: "none"},

	{Name: "serve.same_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "same_p50_us, read_qps"},
	{Name: "serve.entities_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "read_qps"},
	{Name: "serve.apply_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "apply_p50_us"},
	{Name: "serve.same_server_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "same_p50_us (the server's own histogram; client minus this is transport)"},
	{Name: "serve.same_server_p99_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "same_p99_us"},
	{Name: "serve.apply_server_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "apply_p50_us"},
	{Name: "serve.cpu_s_per_kreq", Unit: "s", Better: "lower", Layer: "serve", Moves: "read_qps"},

	{Name: "graphkeys.same_self_ns", Unit: "ns", Better: "lower", Layer: "graphkeys", Moves: "same_p50_us"},
	{Name: "graphkeys.entities_with_self_ns", Unit: "ns", Better: "lower", Layer: "graphkeys", Moves: "read_qps"},
	{Name: "graphkeys.apply_self_us", Unit: "us", Better: "lower", Layer: "graphkeys", Moves: "apply_p50_us"},
	{Name: "graphkeys.apply_batch_us_per_delta", Unit: "us", Better: "lower", Layer: "graphkeys", Moves: "ingest_deltas_per_s"},
	{Name: "graphkeys.build_result_ms", Unit: "ms", Better: "lower", Layer: "graphkeys", Moves: "match_s"},
	{Name: "graphkeys.mu_read_wait_p99_us", Unit: "us", Better: "lower", Layer: "graphkeys", Moves: "same_p99_us: p99 beside the writer minus p99 reads-only, the number ROADMAP item 3 takes to 0"},
	{Name: "ingest_deltas_per_s", Unit: "1/s", Better: "higher", Layer: "graphkeys", Moves: "deltas / wall from a slice's first Writer.Apply to its Flush return, DurabilityFsync, best slice; end-to-end in intent, here because on the sandbox it halves whenever one of the two cores is disturbed"},
	{Name: "matcher.apply_batch_p50_us", Unit: "us", Better: "lower", Layer: "graphkeys", Moves: "ingest_deltas_per_s"},
	{Name: "matcher.batch_size_mean", Unit: "count", Better: "higher", Layer: "graphkeys", Moves: "ingest_deltas_per_s"},
	{Name: "writer.batch_size_mean", Unit: "count", Better: "higher", Layer: "graphkeys", Moves: "ingest_deltas_per_s"},
	{Name: "writer.batches", Unit: "count", Better: "lower", Layer: "graphkeys", Moves: "ingest_deltas_per_s"},
	{Name: "writer.failed", Unit: "count", Better: "lower", Layer: "graphkeys", Moves: "failed"},

	{Name: "inc.apply_self_us", Unit: "us", Better: "lower", Layer: "inc", Moves: "apply_p50_us, same_p99_us"},
	{Name: "inc.apply_all_us_per_delta", Unit: "us", Better: "lower", Layer: "inc", Moves: "ingest_deltas_per_s"},
	{Name: "inc.new_ms", Unit: "ms", Better: "lower", Layer: "inc", Moves: "recover_s, setup_s"},
	{Name: "inc.replay_apply_all_ms", Unit: "ms", Better: "lower", Layer: "inc", Moves: "recover_s"},
	{Name: "inc.checked_per_delta", Unit: "count", Better: "lower", Layer: "inc", Moves: "apply_p50_us"},
	{Name: "inc.identified_per_checked", Unit: "ratio", Better: "higher", Layer: "inc", Moves: "apply_p50_us: useful / attempted key checks"},
	{Name: "inc.suspects_per_delta", Unit: "count", Better: "lower", Layer: "inc", Moves: "apply_p50_us"},
	{Name: "inc.region_per_delta", Unit: "count", Better: "lower", Layer: "inc", Moves: "apply_p50_us"},
	{Name: "inc.rounds", Unit: "count", Better: "lower", Layer: "inc", Moves: "apply_p99_us"},
	{Name: "inc.worklist_depth_mean", Unit: "count", Better: "lower", Layer: "inc", Moves: "apply_p99_us"},

	{Name: "chase.run_seq_ms", Unit: "ms", Better: "lower", Layer: "chase", Moves: "match_s"},
	{Name: "chase.run_parallel_ms", Unit: "ms", Better: "lower", Layer: "chase", Moves: "match_parallel_s"},
	{Name: "chase.iso_steps", Unit: "count", Better: "lower", Layer: "chase", Moves: "match_s"},
	{Name: "chase.steps", Unit: "count", Better: "lower", Layer: "chase", Moves: "match_s"},
	{Name: "chase.candidates", Unit: "count", Better: "lower", Layer: "chase", Moves: "match_s"},

	{Name: "match.new_ms", Unit: "ms", Better: "lower", Layer: "match", Moves: "match_s, match_parallel_s, match_vcopt_s"},
	{Name: "match.candidate_stream_ms", Unit: "ms", Better: "lower", Layer: "match", Moves: "match_s, match_parallel_s, match_vcopt_s"},
	{Name: "match.candidates", Unit: "count", Better: "lower", Layer: "match", Moves: "match_s"},
	{Name: "match.check_ns", Unit: "ns", Better: "lower", Layer: "match", Moves: "match_s; apply_p50_us"},
	{Name: "match.iso_steps_per_check", Unit: "count", Better: "lower", Layer: "match", Moves: "match_s"},
	{Name: "match.postings_scanned_per_delta", Unit: "count", Better: "lower", Layer: "match", Moves: "apply_p50_us, ingest_deltas_per_s (partner streams)"},
	{Name: "match.candidates_streamed", Unit: "count", Better: "lower", Layer: "match", Moves: "ingest_deltas_per_s"},
	{Name: "match.candidates_pruned", Unit: "count", Better: "higher", Layer: "match", Moves: "ingest_deltas_per_s"},

	{Name: "engine.parallel_dispatch_ns_per_item", Unit: "ns", Better: "lower", Layer: "engine", Moves: "match_parallel_s, match_vcopt_s"},
	{Name: "engine.parallel_calls", Unit: "count", Better: "lower", Layer: "engine", Moves: "ingest_deltas_per_s"},
	{Name: "engine.parallel_items_per_call", Unit: "count", Better: "higher", Layer: "engine", Moves: "ingest_deltas_per_s"},
	{Name: "engine.pool_steals", Unit: "count", Better: "lower", Layer: "engine", Moves: "match_parallel_s"},

	{Name: "eqrel.reader_same_ns", Unit: "ns", Better: "lower", Layer: "eqrel", Moves: "none visible: nanoseconds of a microsecond budget"},

	{Name: "graph.entity_lookup_ns", Unit: "ns", Better: "lower", Layer: "graph", Moves: "same_p50_us"},
	{Name: "graph.apply_delta_us", Unit: "us", Better: "lower", Layer: "graph", Moves: "apply_p50_us, ingest_deltas_per_s"},
	{Name: "graph.load_text_ms", Unit: "ms", Better: "lower", Layer: "graph", Moves: "setup_s, recover_s"},
	{Name: "graph.plan_us_mean", Unit: "us", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.plan_hold_us_mean", Unit: "us", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.lower_us_mean", Unit: "us", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.commit_wait_us_mean", Unit: "us", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.admission_wait_us_mean", Unit: "us", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.shard_lock_wait_us_mean", Unit: "us", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.plan_retries", Unit: "count", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.plan_fallbacks", Unit: "count", Better: "lower", Layer: "graph", Moves: "ingest_deltas_per_s"},
	{Name: "graph.deltas_noop", Unit: "count", Better: "lower", Layer: "graph", Moves: "wal_bytes_per_delta"},

	{Name: "wal.commit_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "apply_p50_us, apply_p99_us (group size 1)"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "recover_s"},
	{Name: "wal.fsync_p50_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ingest_deltas_per_s, apply_p50_us"},
	{Name: "wal.fsync_p99_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "apply_p99_us"},
	{Name: "wal.group_size_mean", Unit: "count", Better: "higher", Layer: "wal", Moves: "ingest_deltas_per_s"},
	{Name: "wal.records", Unit: "count", Better: "lower", Layer: "wal", Moves: "wal_bytes_per_delta"},
	{Name: "wal.rewinds", Unit: "count", Better: "lower", Layer: "wal", Moves: "failed"},

	{Name: "keys.parse_ms", Unit: "ms", Better: "lower", Layer: "keys", Moves: "setup_s"},

	{Name: "machine.speed_factor", Unit: "ratio", Better: "lower", Layer: "machine", Moves: "none: the calibration loop's median time during the traced pass over its reference time; an untraced run divides its timings by it, a traced run reports them as the clock read them"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "none; must stay below 0.15"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Layer: "run", Moves: "operations failed or refused / attempted; 0 on a healthy run, so it cannot carry a relative bound"},
}
