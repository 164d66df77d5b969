package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (TestMetricListsMatch
// keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"phi_s", "s"},
	{"advice_s", "s"},
	{"elect_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"fail_ratio", "ratio"},
	{"svc_rps", "1/s"},
	{"svc_hot_p50_ms", "ms"},
	{"svc_warm_p50_ms", "ms"},
	{"svc_cold_p50_ms", "ms"},
}

// perLayer is what a traced run reports, on every workload; a layer the
// workload does not use reads 0. svc_hot_p99_ms sits here, without a
// bound, because its run-to-run spread on advised-mix reached the
// largest bound an end-to-end metric may have.
var perLayer = []metricDef{
	{"svc_hot_p99_ms", "ms"},
	{"part.step_s", "s"},
	{"part.steps", "count"},
	{"part.frontier_classes", "count"},
	{"part.max_step_s", "s"},
	{"classviews.step_s", "s"},
	{"classviews.class_views", "count"},
	{"view.table_views", "count"},
	{"trie.e1_build_s", "s"},
	{"trie.e2_build_s", "s"},
	{"trie.couples", "count"},
	{"trie.label_s", "s"},
	{"trie.labels", "count"},
	{"advice.encode_s", "s"},
	{"advice.decode_s", "s"},
	{"advice.bits", "bit"},
	{"advice.bits_per_nlogn", "ratio"},
	{"graph.bfs_tree_s", "s"},
	{"sim.engine_s", "s"},
	{"sim.decide_s", "s"},
	{"sim.decide_calls", "count"},
	{"sim.rounds", "count"},
	{"sim.class_views", "count"},
	{"sim.verify_s", "s"},
	{"shard.engine_s", "s"},
	{"shard.sends_data", "count"},
	{"shard.sends_view", "count"},
	{"shard.sends_ack", "count"},
	{"shard.payload_ids", "count"},
	{"shard.shipped_views", "count"},
	{"shard.resends", "count"},
	{"shard.resend_ratio", "ratio"},
	{"shard.recv_wait_s", "s"},
	{"shard.journal_s", "s"},
	{"shard.journal_views", "count"},
	{"graph.decode_s", "s"},
	{"canon.hash_s", "s"},
	{"store.get_s", "s"},
	{"store.put_s", "s"},
	{"store.entries", "count"},
	{"serve.memo_hit_ratio", "ratio"},
	{"serve.store_hit_ratio", "ratio"},
	{"serve.computed", "count"},
	{"serve.dedup", "count"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"gc.cycles", "count"},
	{"gc.cpu_s", "s"},
	{"gc.pause_s", "s"},
	{"heap.alloc_bytes", "B"},
	{"paper.rounds_minus_phi", "count"},
	{"paper.phi_over_dlogn", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.advice_overhead", "ratio"},
	{"trace.elect_overhead", "ratio"},
}

// spanMetric maps a span name to the per-layer time metric it feeds.
var spanMetric = map[string]string{
	"part.step":       "part.step_s",
	"classviews.step": "classviews.step_s",
	"trie.e1_build":   "trie.e1_build_s",
	"trie.e2_build":   "trie.e2_build_s",
	"trie.label":      "trie.label_s",
	"advice.encode":   "advice.encode_s",
	"advice.decode":   "advice.decode_s",
	"graph.bfs_tree":  "graph.bfs_tree_s",
	"sim.engine":      "sim.engine_s",
	"sim.verify":      "sim.verify_s",
	"shard.engine":    "shard.engine_s",
	"graph.decode":    "graph.decode_s",
	"canon.hash":      "canon.hash_s",
	"store.get":       "store.get_s",
	"store.put":       "store.put_s",
}
