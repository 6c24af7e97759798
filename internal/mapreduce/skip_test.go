package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// poisonWCMapper is a word-count mapper that panics on any line containing
// the marker token — a deterministic poison record, Hadoop's classic skip
// scenario.
type poisonWCMapper struct{ marker string }

func (m poisonWCMapper) Map(ctx *Context, kv KV) {
	line := kv.Value.(string)
	if strings.Contains(line, m.marker) {
		panic("poison: cannot parse " + m.marker)
	}
	for _, w := range strings.Fields(line) {
		ctx.Emit(w, int64(1))
	}
}

// poisonKeyReducer panics on one key group.
type poisonKeyReducer struct{ key string }

func (r poisonKeyReducer) Reduce(ctx *Context, key string, values []any) {
	if key == r.key {
		panic("poison group " + key)
	}
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	ctx.Emit(key, n)
}

func skipConfig(max int) Config {
	return Config{
		Name: "skip-test", Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
		Fault: FaultPolicy{MaxAttempts: 2, SkipBadRecords: true, MaxSkippedRecords: max},
	}
}

func TestSkipMapPoisonRecord(t *testing.T) {
	input := wcInput("a b c", "a POISON b", "c c", "b a")
	var quarantined []QuarantinedRecord
	cfg := skipConfig(0)
	cfg.Fault.Quarantine = func(r QuarantinedRecord) { quarantined = append(quarantined, r) }

	res, err := Run(cfg, input, poisonWCMapper{marker: "POISON"}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	// The output must equal a clean run over the input minus the poison
	// record — the skip contract.
	clean := wcInput("a b c", "c c", "b a")
	want := runWC(t, Config{Name: "skip-test", Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2}, clean)
	got := map[string]int64{}
	for _, kv := range res.Output {
		got[kv.Key] = kv.Value.(int64)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("output = %v, want %v", got, want)
	}
	if n := res.Counters.Get(CounterRecordsSkipped); n != 1 {
		t.Errorf("%s = %d, want 1", CounterRecordsSkipped, n)
	}
	if len(quarantined) != 1 {
		t.Fatalf("quarantined %d records, want 1: %+v", len(quarantined), quarantined)
	}
	q := quarantined[0]
	if q.Phase != PhaseMap || q.Value != "a POISON b" || q.Job != "skip-test" {
		t.Errorf("quarantined wrong record: %+v", q)
	}
	if !strings.Contains(q.Err, "poison") {
		t.Errorf("quarantine cause %q does not carry the panic", q.Err)
	}
}

func TestSkipMapMultiplePoisons(t *testing.T) {
	input := wcInput("x BAD1 y", "a b", "BAD2", "b b", "BAD3 z")
	var quarantined []QuarantinedRecord
	cfg := skipConfig(0)
	cfg.MapTasks = 1 // all poisons in one task: the bisection loop must find each in turn
	cfg.Fault.Quarantine = func(r QuarantinedRecord) { quarantined = append(quarantined, r) }

	res, err := Run(cfg, input, poisonWCMapper{marker: "BAD"}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 3 {
		t.Fatalf("quarantined %d records, want 3: %+v", len(quarantined), quarantined)
	}
	var bad []string
	for _, q := range quarantined {
		bad = append(bad, q.Value.(string))
	}
	sort.Strings(bad)
	if want := []string{"BAD2", "BAD3 z", "x BAD1 y"}; !reflect.DeepEqual(bad, want) {
		t.Errorf("quarantined %v, want %v", bad, want)
	}
	got := map[string]int64{}
	for _, kv := range res.Output {
		got[kv.Key] = kv.Value.(int64)
	}
	if want := map[string]int64{"a": 1, "b": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("output = %v, want %v", got, want)
	}
}

func TestSkipReducePoisonGroup(t *testing.T) {
	input := wcInput("a b c", "b c", "c")
	var quarantined []QuarantinedRecord
	cfg := skipConfig(0)
	cfg.Fault.Quarantine = func(r QuarantinedRecord) { quarantined = append(quarantined, r) }

	res, err := Run(cfg, input, wcMapper{}, poisonKeyReducer{key: "b"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, kv := range res.Output {
		got[kv.Key] = kv.Value.(int64)
	}
	if want := map[string]int64{"a": 1, "c": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("output = %v, want %v", got, want)
	}
	if len(quarantined) != 1 || quarantined[0].Key != "b" || quarantined[0].Phase != PhaseReduce {
		t.Errorf("quarantined = %+v, want one reduce-phase record with key b", quarantined)
	}
}

func TestSkipBudgetAborts(t *testing.T) {
	input := wcInput("BAD1", "BAD2", "BAD3", "ok")
	cfg := skipConfig(2)
	cfg.MapTasks = 1
	_, err := Run(cfg, input, poisonWCMapper{marker: "BAD"}, wcReducer{})
	if err == nil || !strings.Contains(err.Error(), "MaxSkippedRecords") {
		t.Fatalf("err = %v, want MaxSkippedRecords abort", err)
	}
}

// combinerPanic fails in the combiner — on a map task's second emission of
// one key — which skip-mode probes deliberately do not replay: the failure
// must stay unskippable and surface as-is.
type combinerPanic struct{}

func (combinerPanic) Fold(acc, v any) any { panic("combiner broken") }

func TestSkipCombinerFaultUnskippable(t *testing.T) {
	cfg := skipConfig(0)
	cfg.Combiner = combinerPanic{}
	_, err := Run(cfg, wcInput("a b a", "b c"), wcMapper{}, wcReducer{})
	if err == nil || !strings.Contains(err.Error(), "combiner broken") {
		t.Fatalf("err = %v, want the original combiner failure", err)
	}
}

// setupPanicMapper fails before any record: probe(0) reproduces it, so no
// record can be blamed and the job must fail with the original error.
type setupPanicMapper struct{ wcMapper }

func (setupPanicMapper) Setup(ctx *Context) { panic("setup broken") }

func TestSkipSetupFaultUnskippable(t *testing.T) {
	cfg := skipConfig(0)
	_, err := Run(cfg, wcInput("a b"), setupPanicMapper{}, wcReducer{})
	if err == nil || !strings.Contains(err.Error(), "setup broken") {
		t.Fatalf("err = %v, want the original setup failure", err)
	}
}

func TestSkipMapOnlyJob(t *testing.T) {
	input := wcInput("a b", "POISON", "c")
	cfg := skipConfig(0)
	cfg.MapTasks = 1
	res, err := Run(cfg, input, poisonWCMapper{marker: "POISON"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var words []string
	for _, kv := range res.Output {
		words = append(words, kv.Key)
	}
	sort.Strings(words)
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(words, want) {
		t.Errorf("map-only output keys = %v, want %v", words, want)
	}
	if n := res.Counters.Get(CounterRecordsSkipped); n != 1 {
		t.Errorf("%s = %d, want 1", CounterRecordsSkipped, n)
	}
}

// recordFaultInjector arms an injected FaultRecordPanic: one record index
// of one map task fails on every attempt, including probes — the injected
// analogue of a poison record.
type recordFaultInjector struct {
	task, record int
}

func (i recordFaultInjector) Decide(_ string, phase Phase, task, attempt int) Fault {
	if phase == PhaseMap && task == i.task {
		return Fault{Kind: FaultRecordPanic, Record: i.record, Msg: "injected record fault"}
	}
	return Fault{}
}

func TestInjectedRecordFaultSkipped(t *testing.T) {
	input := wcInput("a a", "b b", "c c", "d d")
	cfg := Config{
		Name: "inject-skip", Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
		Fault: FaultPolicy{
			MaxAttempts: 3, SkipBadRecords: true,
			Injector: recordFaultInjector{task: 0, record: 1},
		},
	}
	var quarantined []QuarantinedRecord
	cfg.Fault.Quarantine = func(r QuarantinedRecord) { quarantined = append(quarantined, r) }
	res, err := Run(cfg, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 1 || quarantined[0].Task != 0 {
		t.Fatalf("quarantined = %+v, want one record from map task 0", quarantined)
	}
	// Without the second record of task 0's split, exactly one word pair is
	// missing from the count.
	got := map[string]int64{}
	for _, kv := range res.Output {
		got[kv.Key] = kv.Value.(int64)
	}
	total := int64(0)
	for _, n := range got {
		total += n
	}
	if total != 6 || len(got) != 3 {
		t.Errorf("output = %v, want 3 surviving words with 6 occurrences", got)
	}
	// An injector fault without skip mode keeps failing the job — skip is
	// what makes it survivable.
	cfg2 := cfg
	cfg2.Fault.SkipBadRecords = false
	cfg2.Fault.Quarantine = nil
	if _, err := Run(cfg2, input, wcMapper{}, wcReducer{}); err == nil {
		t.Fatal("injected record fault without skip mode should fail the job")
	}
}

// TestSkipDeterministicAcrossParallelism asserts the skip path keeps the
// engine's determinism contract: same output and skip counter at any
// parallelism.
func TestSkipDeterministicAcrossParallelism(t *testing.T) {
	input := wcInput("a b BAD c", "a a", "b BAD", "c c c", "d")
	run := func(par int) (map[string]int64, int64) {
		cfg := skipConfig(0)
		cfg.MapTasks = 3
		cfg.Parallelism = par
		res, err := Run(cfg, input, poisonWCMapper{marker: "BAD"}, wcReducer{})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, kv := range res.Output {
			out[kv.Key] = kv.Value.(int64)
		}
		return out, res.Counters.Get(CounterRecordsSkipped)
	}
	seqOut, seqSkip := run(1)
	parOut, parSkip := run(8)
	if !reflect.DeepEqual(seqOut, parOut) || seqSkip != parSkip {
		t.Errorf("parallel run diverged: seq=(%v,%d) par=(%v,%d)", seqOut, seqSkip, parOut, parSkip)
	}
	if seqSkip != 2 {
		t.Errorf("skipped = %d, want 2", seqSkip)
	}
}

// cancelAtProbe cancels the job when skip mode asks for its probe fault,
// so every probe of the bisection runs under a cancelled context.
type cancelAtProbe struct{ cancel context.CancelFunc }

func (c cancelAtProbe) Decide(_ string, _ Phase, _, attempt int) Fault {
	if attempt == ProbeAttempt {
		c.cancel()
	}
	return Fault{}
}

// TestSkipEndsOnCancel: a job cancelled while skip mode bisects a map or a
// reduce task ends with the cancellation and quarantines nothing. The
// poison sits past the first CheckCancel stride, so every probe longer
// than the stride fails with the cancellation, not the poison — a failure
// that must not be taken for a poison record's.
func TestSkipEndsOnCancel(t *testing.T) {
	const units, poison = 4000, 3000
	input := make([]KV, units)
	for i := range input {
		input[i] = KV{Key: fmt.Sprintf("k%04d", i)}
	}
	bad := input[poison].Key
	count := MapFunc(func(ctx *Context, kv KV) { ctx.Emit(kv.Key, int64(1)) })
	for _, tc := range []struct {
		name    string
		mapper  Mapper
		reducer Reducer
	}{
		{"map", MapFunc(func(ctx *Context, kv KV) {
			if kv.Key == bad {
				panic("poison record " + bad)
			}
			count(ctx, kv)
		}), wcReducer{}},
		{"reduce", count, poisonKeyReducer{key: bad}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sinkCalls := 0
			cfg := Config{
				Name: "skip-cancel", Cluster: tinyCluster(), MapTasks: 1, ReduceTasks: 1, Context: ctx,
				Fault: FaultPolicy{
					MaxAttempts: 2, SkipBadRecords: true, Injector: cancelAtProbe{cancel},
					Quarantine: func(QuarantinedRecord) { sinkCalls++ },
				},
			}
			// A failed job returns no counters: the skip charge it keeps is
			// what CounterRecordsSkipped would have summed.
			env, err := newJobEnv(cfg, jobInput{kvs: input}, tc.mapper, tc.reducer, false)
			if err != nil {
				t.Fatal(err)
			}
			_, err = runJob(env)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if sinkCalls != 0 || env.quarantine.skipped != 0 {
				t.Fatalf("quarantined %d records (%d sink calls) of a cancelled job, want none",
					env.quarantine.skipped, sinkCalls)
			}
		})
	}
}
