package main

// metricDef names one reported metric. The end-to-end and per-layer lists
// must match BENCHMARK.json at the repository root (TestBenchmarkJSON).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics are measured against the real binary with no tracing,
// reported by every workload, and gated by their bounds. The latencies and
// the workload-specific figures (topk_p50_ms, mutate_p99_ms,
// replica_lag_ms, recover_s, peak_rss_mb, ...) are printed on the report
// line before the result line; README.md says why they carry no bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
}

// perLayerMetrics come from the traced replay unless README.md marks them
// scraped (read from /stats, the store directory or /proc at the edges of
// the real run). A layer the workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"topkcleand.encode_ms", "ms", "lower", 0},
	{"topkcleand.encode_cpu_share", "fraction", "lower", 0},
	{"topkcleand.body_bytes", "bytes", "lower", 0},
	{"topkcleand.repeat_key_share", "fraction", "higher", 0},
	{"topkcleand.coalesced_ratio", "fraction", "higher", 0},
	{"topkcleand.http_ms", "ms", "lower", 0},
	{"topkclean.answers_ms", "ms", "lower", 0},
	{"topkclean.quality_at_ms", "ms", "lower", 0},
	{"topkclean.memo_hit_ratio", "fraction", "higher", 0},
	{"topkclean.memo_entries", "count", "lower", 0},
	{"uncertain.snapshot_ms", "ms", "lower", 0},
	{"uncertain.batch_ms", "ms", "lower", 0},
	{"uncertain.watermark_depth", "fraction", "higher", 0},
	{"uncertain.group_stable_ratio", "fraction", "higher", 0},
	{"topkq.full_pass_ms", "ms", "lower", 0},
	{"topkq.full_passes", "count", "lower", 0},
	{"topkq.resume_ms", "ms", "lower", 0},
	{"topkq.resumes", "count", "lower", 0},
	{"topkq.resume_fallbacks", "count", "lower", 0},
	{"topkq.positions_scanned", "count", "lower", 0},
	{"topkq.rebuilds", "count", "lower", 0},
	{"topkq.ukranks_ms", "ms", "lower", 0},
	{"topkq.globaltopk_ms", "ms", "lower", 0},
	{"topkq.globaltopk_cpu_share", "fraction", "lower", 0},
	{"topkq.ptk_ms", "ms", "lower", 0},
	{"quality.tp_ms", "ms", "lower", 0},
	{"quality.tp_calls", "count", "lower", 0},
	{"quality.tp_skip_ratio", "fraction", "higher", 0},
	{"cleaning.context_ms", "ms", "lower", 0},
	{"cleaning.plan_ms", "ms", "lower", 0},
	{"store.batch_ms", "ms", "lower", 0},
	{"store.checkpoint_ms", "ms", "lower", 0},
	{"store.checkpoints", "count", "lower", 0},
	{"store.bytes_per_commit", "bytes", "lower", 0},
	{"store.write_amp", "ratio", "lower", 0},
	{"store.dir_growth_bytes", "bytes", "lower", 0},
	{"store.scraped_checkpoints", "count", "lower", 0},
	{"store.scraped_wal_records", "count", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"shard.batch_ms", "ms", "lower", 0},
	{"shard.answers_ms", "ms", "lower", 0},
	{"shard.scanned_per_version", "count", "lower", 0},
	{"shard.shards_opened", "count", "lower", 0},
	{"shard.scraped_scanned_per_version", "count", "lower", 0},
	{"replica.poll_ms", "ms", "lower", 0},
	{"replica.records_per_poll", "count", "lower", 0},
	{"replica.bytes_behind", "bytes", "lower", 0},
	{"replica.resyncs", "count", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
	{"trace.unaccounted_frac", "fraction", "lower", 0},
	{"gen.stationarity_gap", "fraction", "lower", 0},
	{"replay.versions_compared", "count", "higher", 0},
}
