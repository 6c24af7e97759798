package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fsjoin/internal/mapreduce"
)

// The engine-level chaos suite: a wordcount job with a combiner (so map,
// combine and reduce injection points are all live) runs under dozens of
// seeded schedules and must stay byte-identical to the fault-free run in
// output, deterministic counters and shuffle metrics.

type chaosMapper struct{}

func (chaosMapper) Map(ctx *mapreduce.Context, kv mapreduce.KV) {
	for _, w := range strings.Fields(kv.Value.(string)) {
		ctx.Emit(w, int64(1))
		ctx.Inc("wc.tokens", 1)
	}
}

type chaosReducer struct{}

func (chaosReducer) Reduce(ctx *mapreduce.Context, key string, values []any) {
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	ctx.Emit(key, n)
	ctx.Inc("wc.groups", 1)
}

// Fold makes chaosReducer the job's combiner too: the same sum at Emit.
func (chaosReducer) Fold(acc, v any) any { return acc.(int64) + v.(int64) }

func chaosInput(n int) []mapreduce.KV {
	words := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa")
	kvs := make([]mapreduce.KV, n)
	for i := range kvs {
		var sb strings.Builder
		for j := 0; j < 4+i%5; j++ {
			sb.WriteString(words[(i*7+j*3)%len(words)])
			sb.WriteByte(' ')
		}
		kvs[i] = mapreduce.KV{Key: fmt.Sprint(i), Value: sb.String()}
	}
	return kvs
}

func cluster() *mapreduce.Cluster {
	cl := mapreduce.DefaultCluster()
	cl.Nodes = 2
	return cl
}

type outcome struct {
	output   []mapreduce.KV
	counters map[string]int64
	fp       Fingerprint
}

func runJob(t *testing.T, parallelism int, fault mapreduce.FaultPolicy) outcome {
	t.Helper()
	res, err := mapreduce.Run(mapreduce.Config{
		Name:        "chaos-wc",
		Cluster:     cluster(),
		MapTasks:    6,
		ReduceTasks: 5,
		Parallelism: parallelism,
		Combiner:    chaosReducer{},
		Fault:       fault,
	}, chaosInput(40), chaosMapper{}, chaosReducer{})
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return outcome{
		output:   res.Output,
		counters: DeterministicCounters(res.Counters.Snapshot()),
		fp:       FingerprintOf(res.Metrics),
	}
}

// TestChaosEngineEquivalence runs 40 seeded schedules at parallelism 1
// and 4 and asserts each is indistinguishable from the fault-free run.
func TestChaosEngineEquivalence(t *testing.T) {
	want := runJob(t, 1, mapreduce.FaultPolicy{})
	for _, sched := range Schedules(1234, 40) {
		for _, par := range []int{1, 4} {
			got := runJob(t, par, sched.Policy())
			if !reflect.DeepEqual(got.output, want.output) {
				t.Fatalf("seed %d par %d: output differs", sched.Seed, par)
			}
			if !reflect.DeepEqual(got.counters, want.counters) {
				t.Fatalf("seed %d par %d: counters differ\n got %v\nwant %v",
					sched.Seed, par, got.counters, want.counters)
			}
			if got.fp != want.fp {
				t.Fatalf("seed %d par %d: shuffle metrics differ\n got %+v\nwant %+v",
					sched.Seed, par, got.fp, want.fp)
			}
		}
	}
}

// TestChaosScheduleReRunnable: a schedule is reproducible from its seed
// alone — two runs of the same schedule agree on output and, at
// parallelism 1, on the complete counter set including retry and
// injection bookkeeping.
func TestChaosScheduleReRunnable(t *testing.T) {
	full := func(i int, p mapreduce.FaultPolicy) map[string]int64 {
		res, err := mapreduce.Run(mapreduce.Config{
			Name: "rerun", Cluster: cluster(), MapTasks: 4, ReduceTasks: 3,
			Combiner: chaosReducer{}, Fault: p,
		}, chaosInput(24), chaosMapper{}, chaosReducer{})
		if err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
		return res.Counters.Snapshot()
	}
	for i := 0; i < 8; i++ {
		sched := At(977, i)
		a := runJob(t, 1, sched.Policy())
		b := runJob(t, 1, sched.Policy())
		if !reflect.DeepEqual(a.output, b.output) {
			t.Fatalf("schedule %d: re-run changed output", i)
		}
		if x, y := full(i, sched.Policy()), full(i, sched.Policy()); !reflect.DeepEqual(x, y) {
			t.Fatalf("schedule %d: bookkeeping counters not reproducible\n%v\n%v", i, x, y)
		}
	}
}

// TestChaosFaultsActuallyFire guards against a silently inert harness:
// across the schedule set, every fault kind must have been injected and
// retries must have happened.
func TestChaosFaultsActuallyFire(t *testing.T) {
	totals := map[string]int64{}
	for _, sched := range Schedules(1234, 40) {
		res, err := mapreduce.Run(mapreduce.Config{
			Name: "fire", Cluster: cluster(), MapTasks: 6, ReduceTasks: 5,
			Parallelism: 4, Combiner: chaosReducer{}, Fault: sched.Policy(),
		}, chaosInput(40), chaosMapper{}, chaosReducer{})
		if err != nil {
			t.Fatalf("seed %d: %v", sched.Seed, err)
		}
		for k, v := range res.Counters.Snapshot() {
			totals[k] += v
		}
	}
	for _, want := range []string{
		"mapreduce.fault.injected.panic",
		"mapreduce.fault.injected.emit-panic",
		"mapreduce.fault.injected.error",
		"mapreduce.fault.injected.delay",
		"mapreduce.task.retries",
	} {
		if totals[want] == 0 {
			t.Errorf("no %s across 40 schedules — harness inert", want)
		}
	}
}

// inFlight counts the calls into user code under way and keeps the
// largest count seen.
type inFlight struct{ now, max atomic.Int64 }

func (f *inFlight) enter() {
	n := f.now.Add(1)
	for m := f.max.Load(); n > m && !f.max.CompareAndSwap(m, n); m = f.max.Load() {
	}
}

func (f *inFlight) exit() { f.now.Add(-1) }

// TestChaosParallelismOneIsSerial: at Parallelism 1 no two calls into
// user code overlap — not under seeded faults and retries, and not while
// skip mode bisects a poison record out of a map task.
func TestChaosParallelismOneIsSerial(t *testing.T) {
	input := chaosInput(40)
	input[17].Value = "alpha POISON beta"
	for _, sched := range Schedules(4321, 20) {
		calls := &inFlight{}
		mapper := mapreduce.MapFunc(func(ctx *mapreduce.Context, kv mapreduce.KV) {
			calls.enter()
			defer calls.exit()
			if strings.Contains(kv.Value.(string), "POISON") {
				panic("poison record")
			}
			chaosMapper{}.Map(ctx, kv)
		})
		reducer := mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			calls.enter()
			defer calls.exit()
			chaosReducer{}.Reduce(ctx, key, values)
		})
		fault := sched.Policy()
		fault.SkipBadRecords = true
		res, err := mapreduce.Run(mapreduce.Config{
			Name: "serial", Cluster: cluster(), MapTasks: 6, ReduceTasks: 5,
			Parallelism: 1, Combiner: chaosReducer{}, Fault: fault,
		}, input, mapper, reducer)
		if err != nil {
			t.Fatalf("seed %d: %v", sched.Seed, err)
		}
		if n := res.Counters.Get(mapreduce.CounterRecordsSkipped); n != 1 {
			t.Fatalf("seed %d: %d records skipped, want the poison alone", sched.Seed, n)
		}
		if m := calls.max.Load(); m != 1 {
			t.Fatalf("seed %d: %d calls into user code at once at parallelism 1", sched.Seed, m)
		}
	}
}
