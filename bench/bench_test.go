package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fsjoin"
)

// testConfig runs every workload at a twentieth of its size with one timed
// join call.
func testConfig() config {
	return config{seed: 1, seconds: 0.2, scale: 0.05, minReps: 1}
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesTables keeps ../BENCHMARK.json and the tables in
// workloads.go and metrics.go in step, and holds every name to the
// contract's alphabet and lengths.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got spec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(got.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if g := got.Workloads[i]; g.Name != w.name || g.Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go %q: %q", i, g, w.name, w.why)
		}
	}
	compare := func(kind string, defs []metricDef, got []specMetric, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			checkName(d.name)
			g := got[i]
			ok := g.Name == d.name && g.Unit == d.unit && g.Better == better(d) && unit.MatchString(d.unit)
			if bounded {
				ok = ok && g.Bound != nil && *g.Bound == d.bound && d.bound > 0 && d.bound <= 0.25
			} else {
				ok = ok && g.Bound == nil
			}
			if !ok {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", endToEnd, got.EndToEnd, true)
	compare("per_layer", perLayer, got.PerLayer, false)
	if len(got.PerLayer) > 128 || got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("per_layer has %d metrics, run_seconds is %d", len(got.PerLayer), got.RunSeconds)
	}
	if len(got.Paths) != 1 || got.Paths[0] != "bench" {
		t.Errorf("paths = %v", got.Paths)
	}
}

// TestWorkloadsReportEveryMetric runs all six workloads untraced and traced
// and requires every end-to-end metric, non-zero, and every per-layer
// metric that applies to the workload.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	tmp := t.TempDir()
	for _, w := range workloads {
		res, err := runEndToEnd(w, testConfig(), tmp)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.notes)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.name]; !ok || !(m.Value > 0) || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v", w.name, d.name, m)
			}
		}

		traceOut := filepath.Join(tmp, w.name+".trace.json")
		res, err = runTraced(w, testConfig(), tmp, traceOut)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d checks failed: %v", w.name, res.Failed, res.Attempted, res.notes)
		}
		for _, d := range perLayer {
			m, ok := res.Metrics[d.name]
			if ok != d.on(w) || (ok && (m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0))) {
				t.Errorf("%s traced: %s reported=%v applies=%v value=%+v", w.name, d.name, ok, d.on(w), m)
			}
		}
		var tf traceFile
		b, err := os.ReadFile(traceOut)
		if err != nil || json.Unmarshal(b, &tf) != nil || len(tf.TraceEvents) < 5 {
			t.Errorf("%s traced: trace file unusable (%v, %d events)", w.name, err, len(tf.TraceEvents))
		}
		for _, e := range tf.TraceEvents {
			if e.Args["workload"] != w.name || e.Dur < 0 {
				t.Fatalf("%s traced: bad span %+v", w.name, e)
			}
		}
	}
}

// TestGateTripsOnDroppedPair drops one pair that touches a sampled record
// from a correct result; the gate must pass the full result and fail the
// damaged one.
func TestGateTripsOnDroppedPair(t *testing.T) {
	w, _ := findWorkload("self_wiki_inmem")
	in := generate(w, 1, 0.05)
	r, _ := in.collections()
	res, err := r.SelfJoin(w.opt)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{}
	checkJoin(g, in, w.opt.Threshold, res.Pairs, 1)
	if g.failed != 0 || g.attempted != int64(len(res.Pairs)+sampleSize) {
		t.Fatalf("full result: %d of %d checks failed: %v", g.failed, g.attempted, g.notes)
	}

	sampled := map[int]bool{}
	for _, rid := range sampleRIDs(sampleSize, in.records, 1) {
		sampled[rid] = true
	}
	drop := -1
	for i, p := range res.Pairs {
		if sampled[p.A] || sampled[p.B] {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("no result pair touches a sampled record")
	}
	damaged := append(append([]fsjoin.Pair{}, res.Pairs[:drop]...), res.Pairs[drop+1:]...)
	g = &gate{}
	checkJoin(g, in, w.opt.Threshold, damaged, 1)
	if g.failed == 0 {
		t.Fatal("the gate passed a result with a dropped pair")
	}

	wrong := append([]fsjoin.Pair{}, res.Pairs...)
	wrong[0].Common++
	g = &gate{}
	checkJoin(g, in, w.opt.Threshold, wrong, 1)
	if g.failed != 1 {
		t.Fatalf("a pair with a wrong overlap failed %d checks, want 1", g.failed)
	}
}

// fakeResult is a set of minCompareRuns noise-free runs in which every
// metric reads 100*scale.
func fakeResult(fp fingerprint, scale float64) *resultFile {
	rf := &resultFile{Fingerprint: fp, Seed: 1, Seconds: 10, Runs: minCompareRuns}
	for _, w := range workloads {
		wr := &workloadResult{Name: w.name, Attempted: 100, Metrics: map[string]*series{}}
		for _, d := range endToEnd {
			s := &series{Unit: d.unit, Median: 100 * scale}
			for range rf.Runs {
				s.Values = append(s.Values, 100*scale)
			}
			wr.Metrics[d.name] = s
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	return rf
}

func TestCompare(t *testing.T) {
	fp := machine()
	a := fakeResult(fp, 1)
	if n, err := compareResults(a, fakeResult(fp, 1)); err != nil || n != 0 {
		t.Errorf("identical results: %d unresolved, %v", n, err)
	}

	// Worse by more than its bound in exactly one row.
	b := fakeResult(fp, 1)
	b.Workloads[2].Metrics["op_p50_ms"].Median *= 1.3
	if _, err := compareResults(a, b); err == nil || !strings.HasPrefix(err.Error(), "1 rows") {
		t.Errorf("one row beyond its bound: %v", err)
	}
	// Better by any amount, or worse within the bound, is not flagged.
	b = fakeResult(fp, 1)
	b.Workloads[2].Metrics["op_p50_ms"].Median *= 0.5
	b.Workloads[4].Metrics["ops_per_s"].Median *= 2
	b.Workloads[4].Metrics["alloc_mb_per_op"].Median *= 1.05
	if _, err := compareResults(a, b); err != nil {
		t.Errorf("improvements flagged: %v", err)
	}
	// On a join workload the tail and the throughput repeat the median call
	// time: one slowdown is one flagged row. On the loop workloads they are
	// measurements of their own.
	b = fakeResult(fp, 1)
	for _, m := range []string{"op_p50_ms", "op_tail_ms"} {
		b.Workloads[1].Metrics[m].Median *= 1.3
	}
	b.Workloads[1].Metrics["ops_per_s"].Median /= 1.5
	if _, err := compareResults(a, b); err == nil || !strings.HasPrefix(err.Error(), "1 rows") {
		t.Errorf("a slower join call: %v", err)
	}
	b = fakeResult(fp, 1)
	b.Workloads[4].Metrics["op_tail_ms"].Median *= 1.3
	b.Workloads[5].Metrics["ops_per_s"].Median /= 1.5
	if _, err := compareResults(a, b); err == nil || !strings.HasPrefix(err.Error(), "2 rows") {
		t.Errorf("a longer tail and a lower throughput on the loops: %v", err)
	}
	// A spread beyond the bound makes the row unresolved, not a regression.
	b = fakeResult(fp, 1)
	b.Workloads[0].Metrics["op_p50_ms"].Median *= 1.3
	b.Workloads[0].Metrics["op_p50_ms"].Spread = 0.5
	if n, err := compareResults(a, b); err != nil || n != 1 {
		t.Errorf("unresolved row: %d unresolved, %v", n, err)
	}
	// Any rise of the error rate is a regression.
	b = fakeResult(fp, 1)
	b.Workloads[5].Failed = 1
	if _, err := compareResults(a, b); err == nil {
		t.Error("a higher error rate was not flagged")
	}

	other := fp
	other.CPUs++
	if _, err := compareResults(a, fakeResult(other, 1)); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("different fingerprints: %v", err)
	}
	b = fakeResult(fp, 1)
	b.Seed = 2
	if _, err := compareResults(a, b); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("different seeds: %v", err)
	}
	// Too few runs to know a spread: no verdict at all.
	a, b = fakeResult(fp, 1), fakeResult(fp, 1)
	a.Runs, b.Runs = minCompareRuns-1, minCompareRuns-1
	if _, err := compareResults(a, b); err == nil || !strings.Contains(err.Error(), "spread is unknown") {
		t.Errorf("sets of %d runs: %v", a.Runs, err)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4).
func TestSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 40}, (26.5 - 10.5) / 12},
		{[]float64{3, 1}, (3.5 - 0.5) / 2},
	} {
		if got := spread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestSummariseReportsFastestTenth: a loop's timings are those of the tenth
// of its samples with the least time per operation, pooled; its operation
// count and peak resident set are those of all of them.
func TestSummariseReportsFastestTenth(t *testing.T) {
	var samples []sample
	for i := 0; i < 20; i++ { // sample i takes 20-i seconds for 10 operations
		ms := float64(20-i) * 100
		samples = append(samples, sample{seconds: float64(20 - i), ops: 10, lat: []float64{ms, ms, ms + 1}, rssMB: float64(i)})
	}
	ls := summarise("test", samples, 0.95)
	// The fastest two samples are the last two: 1 s and 2 s, latencies
	// 100, 100, 101 and 200, 200, 201.
	if ls.p50ms != 150.5 || ls.tailms != 201 || ls.opsPerS != 20.0/3 || ls.ops != 200 || ls.peakRSSMB != 9.5 {
		t.Errorf("summarise = %+v", ls)
	}
	if ls := summarise("test", samples[:3], 0.5); ls.p50ms != 1800 || ls.tailms != 1800 {
		t.Errorf("three samples: %+v, want the fastest one's median twice", ls)
	}
}
