package main

// The benchmark's contract: its workloads, its gated end-to-end metrics
// and its per-layer metrics. BENCHMARK.json at the repository root is
// generated from these tables (statbench --manifest) and a test keeps
// the two in step.

// runSeconds is how long one run measures by default.
const runSeconds = 20

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"size-accel", "the paper's pruning optimizer on seeded c1908-shaped circuits: core pruning does most of the work and collapses mid-run"},
	{"size-brute", "the paper's brute-force baseline on the same circuits: every candidate reaches the sink, pruning is bypassed, dist and overlay dominate"},
	{"serve-mix", "closed-loop HTTP what-if batches with checkpoint-resize-rollback writes on one pooled session: server, client, admission and session lock"},
	{"ssta-large", "repeated full SSTA passes on a seeded 50k-gate circuit: level-parallel forward pass, par and memory per gate dominate"},
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Every workload reports every gated metric, so they are phrased in
// terms of each workload's unit operation: one optimizer iteration on
// size-*, one HTTP what-if batch on serve-mix, one full SSTA pass on
// ssta-large.
var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"heap_mib", "MiB", "lower", 0.25},
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var perLayer = []layerSpec{
	{"circuitgen.generate_ms", "ms", "lower"},
	{"session.open_ms", "ms", "lower"},
	{"ssta.us_per_node", "us", "lower"},
	{"ssta.pass_ms_serial", "ms", "lower"},
	{"ssta.parallel_efficiency", "ratio", "higher"},
	{"ssta.heap_kib_per_gate", "KiB", "lower"},
	{"core.iters", "count", "lower"},
	{"core.visits_per_iter", "count", "lower"},
	{"core.prune_rate", "ratio", "higher"},
	{"core.us_per_visit", "us", "lower"},
	{"core.first_iter_ms", "ms", "lower"},
	{"core.unrecorded_ms", "ms", "lower"},
	{"core.alloc_mib_per_iter", "MiB", "lower"},
	{"design.delay_cache_hit_ratio", "ratio", "higher"},
	{"design.delay_cache_entries", "count", "lower"},
	{"session.resize_nodes_frac", "ratio", "lower"},
	{"session.resize_ms_p50", "ms", "lower"},
	{"session.whatif_batch_ms_p50", "ms", "lower"},
	{"session.whatif_visits_per_cand", "count", "lower"},
	{"session.whatif_allocs_per_cand", "count", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"server.overhead_ms_p50", "ms", "lower"},
	{"server.queued", "count", "lower"},
	{"server.shed", "count", "lower"},
	{"server.non2xx", "count", "lower"},
	{"client.retries", "count", "lower"},
	{"bench.self_ms", "ms", "lower"},
	{"circuitgen.self_ms", "ms", "lower"},
	{"session.self_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"ssta.self_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"client.self_ms", "ms", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func e2eByName(name string) (e2eSpec, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return e2eSpec{}, false
}
