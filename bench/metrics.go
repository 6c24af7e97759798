package main

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// metricDef names one metric. BENCHMARK.json repeats these tables;
// bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer metrics
	// have none.
	bound float64
	// on reports whether a per-layer metric is measured on a workload; on
	// the others a traced run reports 0 for it.
	on func(workload) bool
}

// endToEnd are the metrics a user of the library sees. Every workload
// reports all of them from an untraced run through the public API; README.md
// says what the workload's operation is in each case.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", bound: 0.25},
	{name: "op_tail_ms", unit: "ms", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", bound: 0.20},
	{name: "peak_rss_mb", unit: "MB", bound: 0.25},
}

func onAll(workload) bool     { return true }
func onJoins(w workload) bool { return w.kind != kindProbe }
func onServe(w workload) bool { return w.kind == kindServe }
func onProbe(w workload) bool { return w.kind == kindProbe }
func onSpill(w workload) bool { return w.opt.MemoryBudget > 0 }

var stages = []string{"ordering", "filtering", "verification"}

// perLayer are the single-layer metrics of a traced run, named
// <module>.<metric>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "tokens.encode_ms", unit: "ms", on: onAll},
		{name: "tokens.encode_ns_per_token", unit: "ns", on: onAll},
		{name: "order.compute_ms", unit: "ms", on: onJoins},
		{name: "order.apply_ms", unit: "ms", on: onJoins},
		{name: "order.domain_tokens", unit: "count", on: onJoins},
		{name: "partition.pivots_ms", unit: "ms", on: onJoins},
		{name: "partition.split_ms", unit: "ms", on: onJoins},
		{name: "partition.segments", unit: "count", on: onJoins},
		{name: "partition.replication_x", unit: "x", on: onJoins},
		{name: "fragjoin.join_ms", unit: "ms", on: onJoins},
		{name: "fragjoin.max_fragment_ms", unit: "ms", on: onJoins},
		{name: "fragjoin.fragment_skew_x", unit: "x", on: onJoins},
		{name: "fragjoin.emitted", unit: "count", on: onJoins},
		{name: "fragjoin.emitted_per_result", unit: "x", on: onJoins},
		{name: "fragjoin.comparisons", unit: "count", on: onJoins},
		{name: "filters.bitmap_reject_ratio", unit: "ratio", higher: true, on: onJoins},
		{name: "filters.sig_build_ns", unit: "ns", on: onAll},
		{name: "filters.sig_prune_ns", unit: "ns", on: onAll},
		{name: "filters.verify_ns_per_pair", unit: "ns", on: onAll},
	}
	for _, st := range stages {
		for _, m := range []struct{ name, unit string }{
			{"wall_ms", "ms"}, {"map_task_ms", "ms"}, {"reduce_task_ms", "ms"},
			{"shuffle_records", "count"}, {"shuffle_mb", "MB"},
			{"straggler_x", "x"}, {"load_imbalance_x", "x"},
		} {
			defs = append(defs, metricDef{name: "mapreduce." + st + "." + m.name, unit: m.unit, on: onJoins})
		}
	}
	return append(defs, []metricDef{
		{name: "mapreduce.filtering.self_ms", unit: "ms", on: onJoins},
		{name: "mapreduce.identity_ns_per_record", unit: "ns", on: onJoins},
		{name: "mapreduce.identity_b_per_record", unit: "B", on: onJoins},
		{name: "mapreduce.identity_allocs_per_record", unit: "count", on: onJoins},
		{name: "spill.runs", unit: "count", on: onJoins},
		{name: "spill.write_mb", unit: "MB", on: onJoins},
		{name: "spill.merge_ways", unit: "count", on: onJoins},
		{name: "spill.buffer_ns_per_record", unit: "ns", on: onJoins},
		{name: "spill.slowdown_x", unit: "x", on: onSpill},
		{name: "core.sim_cluster_s", unit: "s", on: onJoins},
		{name: "core.candidates", unit: "count", on: onJoins},
		{name: "core.pairs", unit: "count", on: onJoins},
		{name: "direct.join_ms", unit: "ms", on: onJoins},
		{name: "core.engine_overhead_x", unit: "x", on: onJoins},
		{name: "probeindex.build_ms", unit: "ms", on: onProbe},
		{name: "probeindex.probe_direct_ns", unit: "ns", on: onProbe},
		{name: "probeindex.candidates_per_probe", unit: "count", on: onProbe},
		{name: "probeindex.hits_per_probe", unit: "count", on: onProbe},
		{name: "probeindex.insert_ns", unit: "ns", on: onProbe},
		{name: "probeindex.insert_p50_us", unit: "us", on: onProbe},
		{name: "probeindex.insert_p99_us", unit: "us", on: onProbe},
		{name: "probeindex.wal_bytes_per_insert", unit: "B", on: onProbe},
		{name: "probeindex.compactions", unit: "count", on: onProbe},
		{name: "probeindex.compact_ms", unit: "ms", on: onProbe},
		{name: "probeindex.save_ms", unit: "ms", on: onProbe},
		{name: "probeindex.load_ms", unit: "ms", on: onProbe},
		{name: "probeindex.snapshot_mb", unit: "MB", on: onProbe},
		{name: "sched.acquire_release_ns", unit: "ns", on: onServe},
		{name: "sched.queue_wait_p50_ms", unit: "ms", on: onServe},
		{name: "sched.shed", unit: "count", on: onServe},
		{name: "fsjoin.server_overhead_ms", unit: "ms", on: onServe},
		{name: "fsjoin.publish_overhead_ms", unit: "ms", on: onJoins},
		{name: "bench.trace_overhead_x", unit: "x", on: onAll},
	}...)
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a single-workload run prints last.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
}

func newRunResult() *runResult { return &runResult{Metrics: map[string]metric{}} }

// judge records the correctness gate's verdict on the run.
func (r *runResult) judge(g *gate) {
	r.Correct, r.Attempted, r.Failed, r.notes = g.failed == 0, g.attempted, g.failed, g.notes
}

// set records a metric under the unit its definition gives.
func (r *runResult) set(name string, v float64) {
	d, ok := findMetric(endToEnd, name)
	if !ok {
		if d, ok = findMetric(perLayer, name); !ok {
			panic("bench: metric " + name + " is not defined in metrics.go")
		}
	}
	r.Metrics[name] = metric{Value: v, Unit: d.unit}
}

// print writes one "workload metric value unit" line per metric defs names
// that the workload measures, then the run's JSON object, completing it with
// 0 for the per-layer metrics the workload does not measure.
func (r *runResult) print(w workload, defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			if d.on == nil || d.on(w) {
				return fmt.Errorf("bench: %s did not report %s", w.name, d.name)
			}
			r.Metrics[d.name] = metric{Unit: d.unit}
			continue
		}
		fmt.Printf("%s %s %s %s\n", w.name, d.name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	fmt.Printf("%s error_rate %v ratio\n", w.name, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, n := range r.notes {
		fmt.Printf("%s FAILED %s\n", w.name, n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
