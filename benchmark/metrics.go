package main

// metricDef declares one metric of BENCHMARK.json. The smoke test requires
// these lists and that file to name exactly the same metrics and units.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics: the ones that repeat on this host. They
// come from the untraced rounds only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "B"},
	{"heap_after_gc_mb", "MB"},
}

// perLayer are the metrics a traced run prints: the wall-clock numbers of
// its untraced rounds, then the single-layer metrics of the traced pass. A
// workload that never calls a layer reports that layer's metrics as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"e2e.throughput_ops", "1/s"},
		{"e2e.lat_p50_us", "us"},
		{"e2e.lat_p90_us", "us"},
		{"e2e.lat_p99_us", "us"},

		{"trace.overhead_pct", "%"},
		{"trace.untraced_op_us", "us"},

		{"server.roundtrip_us", "us"},
		{"server.overhead_us", "us"},
		{"server.frame_codec_ns", "ns"},
		{"server.lat_p99_us", "us"},
		{"session.exec_sql_us", "us"},
		{"session.exec_prepared_us", "us"},
		{"session.plan_share", "ratio"},
		{"sql.parse_us", "us"},
		{"sql.plan_us", "us"},
		{"plan.fingerprint_ns", "ns"},
		{"exec.point_select_us", "us"},
		{"exec.point_update_us", "us"},
		{"exec.insert_us", "us"},
		{"exec.delete_us", "us"},
		{"exec.range_select_us", "us"},

		{"txn.commit_us", "us"},
		{"wal.serialize_flush_us", "us"},
		{"wal.bytes_per_commit", "B"},
		{"wal.log_bytes_per_user_byte", "ratio"},
		{"wal.flushes", "count"},
		{"engine.checkpoint_ms", "ms"},
		{"engine.checkpoint_image_bytes", "B"},
		{"engine.recover_ms", "ms"},
		{"gc.run_ms", "ms"},
		{"gc.versions_pruned", "count"},
		{"repl.sync_us", "us"},
		{"repl.ship_bytes_per_commit", "B"},
		{"repl.frame_codec_ns", "ns"},
		{"storage.bulk_load_rows_per_s", "1/s"},
		{"index.build_ms", "ms"},

		{"exec.scan_rows_per_s", "1/s"},

		{"runner.sweep_s", "s"},
		{"runner.records", "count"},
		{"modeling.train_s", "s"},
		{"modeling.inference_us", "us"},
		{"modeling.inference_p99_us", "us"},
		{"modeling.cache_hit_rate", "ratio"},
		{"modeling.predict_query_us", "us"},
		{"forecast.forecast_all_us", "us"},
		{"forecast.volume_mape", "ratio"},
		{"planner.plan_actions_us", "us"},
		{"selfdrive.actions_applied", "count"},
		{"selfdrive.pred_mape", "ratio"},
	}
	for _, q := range olapQueries {
		for _, c := range olapConfigs {
			defs = append(defs, metricDef{"exec." + q.name + "_" + c.name + "_us", "us"})
		}
	}
	for _, c := range olapConfigs {
		defs = append(defs, metricDef{"exec.alloc_bytes_" + c.name, "B"})
		if c.parts == 1 {
			defs = append(defs, metricDef{"hw.sim_over_wall_" + c.name, "ratio"})
		}
	}
	return defs
}()

// roundTimings are the wall-clock numbers of the untraced rounds
// (throughput, pooled percentiles). Between identical runs on this shared
// host they spread by 12 to 40 % of their median (NOISE.md), which no bound
// of 10 % can hold, so they are not gated: every run prints them, a traced
// run reports them, and two commits are compared on them in paired runs.
var roundTimings = perLayer[:4]
