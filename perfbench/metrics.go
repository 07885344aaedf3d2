package main

import (
	"fmt"
	"math"
)

// metricDef is one metric of BENCHMARK.json. The catalog below is the
// benchmark's single list of metric names and units; a test checks that
// BENCHMARK.json declares exactly the same ones.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
// The "job" is each workload's unit of work: a window (windows), an
// experiment that solves thermal cases or runs the DTM transient
// (warm-render), a novel campaign job (serve).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"compute_job_p50_ms", "ms", "lower"},
	{"compute_job_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, named after the
// repository's modules.
var perLayer = []metricDef{
	{"trace.ns_per_inst", "ns", "lower"},
	{"bpred.ns_per_branch", "ns", "lower"},
	{"cache.ns_per_access", "ns", "lower"},
	{"nuca.ns_per_access", "ns", "lower"},
	{"nuca.accesses_per_kinst", "count", "lower"},
	{"ooo.ns_per_inst", "ns", "lower"},
	{"ooo.allocs_per_kinst", "count", "lower"},
	{"ooo.cycles_per_kinst", "count", "lower"},
	{"inorder.ns_per_inst", "ns", "lower"},
	{"core.ns_per_inst", "ns", "lower"},
	{"core.coupling_ns_per_inst", "ns", "lower"},
	{"core.checker_cycles_per_kinst", "count", "lower"},
	{"runsched.computed", "count", "lower"},
	{"runsched.hits", "count", "higher"},
	{"runsched.batch_deduped", "count", "higher"},
	{"runsched.compute_s", "s", "lower"},
	{"runsched.pool_util", "ratio", "higher"},
	{"runsched.longest_window_s", "s", "lower"},
	{"runsched.window_s.lead", "s", "lower"},
	{"runsched.window_s.rmt", "s", "lower"},
	{"runsched.window_s.dfs", "s", "lower"},
	{"runsched.window_s.rvq", "s", "lower"},
	{"experiment.run_s.fig4", "s", "lower"},
	{"experiment.run_s.fig5", "s", "lower"},
	{"experiment.run_s.sec32", "s", "lower"},
	{"experiment.run_s.sec33", "s", "lower"},
	{"experiment.run_s.sec4", "s", "lower"},
	{"experiment.run_s.dtm", "s", "lower"},
	{"experiment.render_s", "s", "lower"},
	{"thermal.solves", "count", "lower"},
	{"thermal.fine_iters", "count", "lower"},
	{"thermal.coarse_iters", "count", "lower"},
	{"thermal.fine_ns_per_cell_iter", "ns", "lower"},
	{"thermal.coarse_ns_per_cell_iter", "ns", "lower"},
	{"dtm.euler_steps", "count", "lower"},
	{"dtm.ns_per_cell_step", "ns", "lower"},
	{"ckpt.save_s", "s", "lower"},
	{"ckpt.load_s", "s", "lower"},
	{"ckpt.bytes_written", "B", "lower"},
	{"ckpt.commits", "count", "lower"},
	{"ckpt.sync_s", "s", "lower"},
	{"campaign.trials", "count", "higher"},
	{"campaign.trial_ms", "ms", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.run_ms", "ms", "lower"},
	{"serve.result_ms", "ms", "lower"},
	{"serve.cached_ms", "ms", "lower"},
	{"serve.joined_inflight", "count", "higher"},
	{"serve.joined_done", "count", "higher"},
	{"serve.rejected", "count", "lower"},
}

// scaled converts the end-to-end timings of m to the reference host
// (see yardstick.go): times are multiplied by scale and rates divided
// by it; other metrics are copied.
func scaled(m metricSet, scale float64) metricSet {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	out := metricSet{}
	for name, v := range m {
		switch units[name] {
		case "s", "ms":
			v *= scale
		case "1/s":
			v /= scale
		}
		out[name] = v
	}
	return out
}

// metricSet collects metric values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// report is the "metrics" object of the result line: every metric of
// defs with its unit. A metric the run did not produce, or one that is
// not a finite number, is an error, so a renamed or forgotten metric
// cannot silently disappear.
func (m metricSet) report(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
