package main

// endToEndUnits lists the metrics an untraced run prints, with units.
// Every workload prints all of them (BENCHMARK.json's end_to_end list):
//
//	throughput_per_s  train-*: samples/s; whatif-mix: /v1/price replies/s
//	latency_p50_ms    train-*: iteration p50; whatif-mix: /v1/price p50
//	latency_tail_ms   train-*: iteration p90; whatif-mix: /v1/price p99.9
//	rss_mb            median resident set through the measured region
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"latency_p50_ms":   "ms",
	"latency_tail_ms":  "ms",
	"rss_mb":           "MiB",
}

// perLayerUnits lists the metrics a traced run prints, with units
// (BENCHMARK.json's per_layer list). A workload that does not run a
// layer prints 0 for it.
var perLayerUnits = map[string]string{
	"model.fwd_ms":                      "ms",
	"model.bwd_ms":                      "ms",
	"model.opt_ms":                      "ms",
	"model.flops_per_iter":              "FLOP",
	"model.gflops":                      "GFLOP/s",
	"compress.cb_codec_ms":              "ms",
	"compress.dp_codec_ms":              "ms",
	"collective.dp_exec_ms":             "ms",
	"collective.dp_op_ms":               "ms",
	"collective.pp_send_ms":             "ms",
	"collective.dp_bytes_per_iter":      "B",
	"collective.pp_bytes_per_iter":      "B",
	"collective.emb_bytes_per_iter":     "B",
	"collective.messages_per_iter":      "count",
	"train.iter_wall_ms":                "ms",
	"train.pipe_ms":                     "ms",
	"train.dp_exposed_ms":               "ms",
	"train.emb_sync_ms":                 "ms",
	"train.residual_ms":                 "ms",
	"train.loss_final":                  "nats",
	"train.single_worker_samples_per_s": "1/s",
	"pipeline.bubble_share":             "ratio",
	"pipeline.bubble_share_model":       "ratio",
	"tensor.pool_hit_rate":              "ratio",
	"mem.alloc_bytes_per_iter":          "B",
	"mem.allocs_per_iter":               "count",
	"mem.gc_per_iter":                   "count",
	"whatif.cache_hit_ratio":            "ratio",
	"whatif.mean_batch":                 "count",
	"whatif.coalesced":                  "count",
	"whatif.evaluators_created":         "count",
	"whatif.handler_us_p50":             "us",
	"whatif.http_overhead_us":           "us",
	"whatif.fresh_scenario_us":          "us",
	"whatif.autotune_p50_ms":            "ms",
	"sim.price_us":                      "us",
	"autotune.search_ms":                "ms",
	"autotune.priced_per_search":        "count",
	"autotune.candidates_per_s":         "1/s",
	"obs.trace_overhead_pct":            "%",
	"obs.dropped_spans":                 "count",
}

// withIdleLayers adds every per-layer metric m lacks as 0: the layer
// did no work on this workload.
func withIdleLayers(m map[string]metric) map[string]metric {
	for name, unit := range perLayerUnits {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
	return m
}
