package main

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json (the smoke test holds them equal); README.md maps every
// per-layer metric to the end-to-end metric and workload it should move.
type metricDef struct{ name, unit string }

// endToEnd is printed by untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"gates_per_s.alg", "gates/s"},
	{"gates_per_s.float", "gates/s"},
	{"gates_per_s.float0", "gates/s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p99", "ms"},
	{"variants_per_s.alg", "variants/s"},
	{"variants_per_s.float0", "variants/s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer is printed by traced runs (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"router.route_ms", "ms"},
		{"server.handle_self_ms", "ms"},
		{"qasm.parse_ms", "ms"},
		{"qasm.parse_mb_per_s", "MB/s"},
		{"circuit.fingerprint_ms", "ms"},
		{"qcache.get_us", "us"},
		{"qcache.hit_ratio", "ratio"},
		{"qcache.put_us", "us"},
		{"qcache.bytes", "bytes"},
		{"engine.result_decode_ms", "ms"},
		{"engine.result_encode_ms", "ms"},
		{"engine.queue_wait_ms.p50", "ms"},
		{"engine.queue_wait_ms.p99", "ms"},
		{"engine.dedup_ratio", "ratio"},
		{"circuit.chain_ms", "ms"},
		{"prefix.probe_ms", "ms"},
		{"prefix.probe_hit_ratio", "ratio"},
		{"prefix.gates_skipped_ratio", "ratio"},
		{"prefix.store_ms", "ms"},
		{"prefix.checkpoints", "count"},
		{"prefix.checkpoint_bytes", "bytes"},
		{"ddio.encode_mb_per_s", "MB/s"},
		{"ddio.decode_mb_per_s", "MB/s"},
		{"sim.scrub_ms", "ms"},
		{"alg.max_coeff_bits", "bits"},
		{"alg.overhead.grover", "ratio"},
		{"alg.overhead.bwt", "ratio"},
		{"alg.overhead.gse", "ratio"},
		{"trace.overhead_ms", "ms"},
		{"loadgen.lateness_ms.p99", "ms"},
	}
	for _, r := range reprs {
		defs = append(defs,
			metricDef{"sim.us_per_gate." + r, "us"},
			metricDef{"core.unique_lookups." + r, "count"},
			metricDef{"core.unique_hit_ratio." + r, "ratio"},
			metricDef{"core.ct_lookups." + r, "count"},
			metricDef{"core.ct_hit_ratio." + r, "ratio"},
			metricDef{"core.interned_weights." + r, "count"},
			metricDef{"core.peak_nodes." + r, "count"},
			metricDef{"core.allocs_per_gate." + r, "allocs/gate"},
			metricDef{"core.bytes_per_gate." + r, "B/gate"},
		)
	}
	return defs
}()

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()
