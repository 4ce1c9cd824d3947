package main

// metricDef describes one reported metric. End-to-end metrics carry
// the bound by which a change may worsen them (a share of the parent's
// median); per-layer metrics carry none and instead name the
// end-to-end metric and workload they are expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the partitioner sees, measured
// with tracing off. Every workload reports all of them.
var endToEnd = []metricDef{
	{Name: "job_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_s_p90", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "device_cost", Unit: "eq1", Better: "lower", Bound: 0.15},
	{Name: "parts_k", Unit: "devices", Better: "lower", Bound: 0.15},
	{Name: "clb_util", Unit: "ratio", Better: "higher", Bound: 0.1},
	{Name: "iob_util", Unit: "ratio", Better: "lower", Bound: 0.1},
	{Name: "topo_cost", Unit: "hops", Better: "lower", Bound: 0.15},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer are the metrics of the separate traced run, grouped by the
// repository module they measure. Counts and times are per repetition
// of the workload's job set unless the name says otherwise.
var perLayer = []metricDef{
	{Name: "hypergraph.read_s", Unit: "s", Better: "lower", Moves: "job_s_p50 on suite-served; setup_s on rent-*"},
	{Name: "hypergraph.read_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "job_s_p50 on suite-served; setup_s on rent-*"},
	{Name: "techmap.map_s", Unit: "s", Better: "lower", Moves: "job_s_p50 on suite-served"},

	{Name: "search.attempts", Unit: "count", Better: "lower", Moves: "jobs_per_s, job_s_p90 on suite-served; job_s_p50 on rent-flat"},
	{Name: "search.failed_attempts", Unit: "count", Better: "lower", Moves: "jobs_per_s, job_s_p90 on suite-served; job_s_p50 on rent-flat"},
	{Name: "search.attempt_s_p50", Unit: "s", Better: "lower", Moves: "jobs_per_s, job_s_p90 on suite-served; job_s_p50 on rent-flat"},
	{Name: "search.busy_frac", Unit: "ratio", Better: "higher", Moves: "jobs_per_s, job_s_p90 on suite-served; job_s_p50 on rent-flat"},

	{Name: "kway.carve_tries", Unit: "count", Better: "lower", Moves: "job_s_p50, device_cost, clb_util on rent-flat"},
	{Name: "kway.carves", Unit: "count", Better: "lower", Moves: "job_s_p50, device_cost, clb_util on rent-flat"},
	{Name: "kway.carve_accept_ratio", Unit: "ratio", Better: "higher", Moves: "job_s_p50, device_cost, clb_util on rent-flat"},
	{Name: "kway.rejects.terminals", Unit: "count", Better: "lower", Moves: "job_s_p50, device_cost, clb_util on rent-flat"},
	{Name: "kway.rejects.other", Unit: "count", Better: "lower", Moves: "job_s_p50, device_cost, clb_util on rent-flat"},
	{Name: "kway.attempt_self_s", Unit: "s", Better: "lower", Moves: "job_s_p50, device_cost, clb_util on rent-flat"},
	{Name: "kway.fold_s", Unit: "s", Better: "lower", Moves: "job_s_p50, device_cost, clb_util on rent-flat"},

	{Name: "fm.passes", Unit: "count", Better: "lower", Moves: "job_s_p50 on rent-flat; unchanged on rent-vcycle"},
	{Name: "fm.moves", Unit: "count", Better: "lower", Moves: "job_s_p50 on rent-flat; unchanged on rent-vcycle"},
	{Name: "fm.pass_s", Unit: "s", Better: "lower", Moves: "job_s_p50 on rent-flat; unchanged on rent-vcycle"},
	{Name: "fm.moves_per_s", Unit: "1/s", Better: "higher", Moves: "job_s_p50 on rent-flat; unchanged on rent-vcycle"},
	{Name: "fm.bipartition_s", Unit: "s", Better: "lower", Moves: "job_s_p50 on rent-flat; unchanged on rent-vcycle"},

	{Name: "replication.replicas", Unit: "count", Better: "lower", Moves: "device_cost, iob_util on suite-served"},
	{Name: "replication.rollbacks", Unit: "count", Better: "lower", Moves: "device_cost, iob_util on suite-served"},
	{Name: "replication.replicated_cells", Unit: "count", Better: "lower", Moves: "device_cost, iob_util on suite-served"},

	{Name: "parfm.passes", Unit: "count", Better: "lower", Moves: "job_s_p50 on rent-vcycle"},
	{Name: "parfm.rounds", Unit: "count", Better: "lower", Moves: "job_s_p50 on rent-vcycle"},
	{Name: "parfm.proposals", Unit: "count", Better: "lower", Moves: "job_s_p50 on rent-vcycle"},
	{Name: "parfm.commits", Unit: "count", Better: "lower", Moves: "job_s_p50 on rent-vcycle"},
	{Name: "parfm.stale_ratio", Unit: "ratio", Better: "lower", Moves: "job_s_p50 on rent-vcycle"},
	{Name: "parfm.pass_s", Unit: "s", Better: "lower", Moves: "job_s_p50 on rent-vcycle"},

	{Name: "multilevel.vcycles", Unit: "count", Better: "lower", Moves: "job_s_p50, cells_per_s on rent-vcycle; zero on rent-flat"},
	{Name: "multilevel.levels", Unit: "count", Better: "lower", Moves: "job_s_p50, cells_per_s on rent-vcycle; zero on rent-flat"},
	{Name: "multilevel.coarsen_s", Unit: "s", Better: "lower", Moves: "job_s_p50, cells_per_s on rent-vcycle; zero on rent-flat"},
	{Name: "multilevel.uncoarsen_s", Unit: "s", Better: "lower", Moves: "job_s_p50, cells_per_s on rent-vcycle; zero on rent-flat"},
	{Name: "multilevel.level_self_s", Unit: "s", Better: "lower", Moves: "job_s_p50, cells_per_s on rent-vcycle; zero on rent-flat"},
	{Name: "cluster.build_s", Unit: "s", Better: "lower", Moves: "job_s_p50, cells_per_s on rent-vcycle"},

	{Name: "topology.board_jobs", Unit: "count", Better: "higher", Moves: "topo_cost, job_s_p50 on suite-served"},
	{Name: "topology.failed_attempts", Unit: "count", Better: "lower", Moves: "topo_cost, job_s_p50 on suite-served"},
	{Name: "topology.board_topo_cost", Unit: "hops", Better: "lower", Moves: "topo_cost on suite-served"},

	{Name: "server.queue_wait_s_p50", Unit: "s", Better: "lower", Moves: "job_s_p90, jobs_per_s on suite-served"},
	{Name: "server.job_span_s_p50", Unit: "s", Better: "lower", Moves: "job_s_p90, jobs_per_s on suite-served"},
	{Name: "server.http_s_p50", Unit: "s", Better: "lower", Moves: "job_s_p90, jobs_per_s on suite-served"},

	{Name: "jobstore.appends", Unit: "count", Better: "lower", Moves: "job_s_p50, jobs_per_s on suite-served"},
	{Name: "jobstore.fsync_s", Unit: "s", Better: "lower", Moves: "job_s_p50, jobs_per_s on suite-served"},
	{Name: "jobstore.fsync_share", Unit: "ratio", Better: "lower", Moves: "job_s_p50, jobs_per_s on suite-served"},

	{Name: "span.count", Unit: "count", Better: "lower", Moves: "no end-to-end metric (end-to-end runs are untraced)"},
	{Name: "span.dropped", Unit: "count", Better: "lower", Moves: "no end-to-end metric (end-to-end runs are untraced)"},
	{Name: "span.overhead_frac", Unit: "ratio", Better: "lower", Moves: "no end-to-end metric (end-to-end runs are untraced)"},

	{Name: "go.alloc_mb_per_job", Unit: "MB", Better: "lower", Moves: "job_s_p50, peak_rss_mb on all workloads"},
	{Name: "go.gc_cycles", Unit: "1/job", Better: "lower", Moves: "job_s_p50, peak_rss_mb on all workloads"},
}

// selfTimeMetrics are the per-layer metrics read from span self times;
// they are withheld when the trace dropped spans, because a partial
// tree misattributes time.
var selfTimeMetrics = map[string]bool{
	"kway.attempt_self_s": true, "kway.fold_s": true, "fm.pass_s": true, "fm.moves_per_s": true,
	"parfm.pass_s": true, "multilevel.coarsen_s": true, "multilevel.uncoarsen_s": true,
	"multilevel.level_self_s": true,
}
