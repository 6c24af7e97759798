package mapreduce

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedInjector replays a fixed decision table, for point tests of each
// injection site.
type scriptedInjector struct {
	faults map[[3]int]Fault // (phase, task, attempt) -> fault
}

func (s scriptedInjector) Decide(_ string, phase Phase, task, attempt int) Fault {
	return s.faults[[3]int{int(phase), task, attempt}]
}

func runWCWithInjector(t *testing.T, inj Injector, combiner Folder) (*Result, *Result) {
	t.Helper()
	input := wcInput("a b a c", "b c d", "d e a")
	cfg := Config{Cluster: tinyCluster(), MapTasks: 3, ReduceTasks: 2, Combiner: combiner}
	want, err := Run(cfg, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = FaultPolicy{Injector: inj}
	got, err := Run(cfg, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// TestInjectedFaultKinds: each kind fires at its phase, is counted, is
// retried where retriable, and leaves the output untouched.
func TestInjectedFaultKinds(t *testing.T) {
	cases := []struct {
		name        string
		fault       Fault
		phase       Phase
		counter     string
		wantRetries int64
	}{
		{"map panic", Fault{Kind: FaultPanic, Msg: "m0"}, PhaseMap,
			"mapreduce.fault.injected.panic", 1},
		{"map emit panic", Fault{Kind: FaultEmitPanic, Msg: "e0"}, PhaseMap,
			"mapreduce.fault.injected.emit-panic", 1},
		{"map transient error", Fault{Kind: FaultError, Msg: "x0"}, PhaseMap,
			"mapreduce.fault.injected.error", 1},
		{"map delay", Fault{Kind: FaultDelay, Delay: time.Millisecond}, PhaseMap,
			"mapreduce.fault.injected.delay", 0},
		{"combine panic", Fault{Kind: FaultPanic, Msg: "c0"}, PhaseCombine,
			"mapreduce.fault.injected.panic", 1},
		{"combine error degrades to panic", Fault{Kind: FaultError, Msg: "ce0"}, PhaseCombine,
			"mapreduce.fault.injected.error", 1},
		{"reduce panic", Fault{Kind: FaultPanic, Msg: "r0"}, PhaseReduce,
			"mapreduce.fault.injected.panic", 1},
		{"reduce emit panic", Fault{Kind: FaultEmitPanic, Msg: "re0"}, PhaseReduce,
			"mapreduce.fault.injected.emit-panic", 1},
		{"reduce delay", Fault{Kind: FaultDelay, Delay: time.Millisecond}, PhaseReduce,
			"mapreduce.fault.injected.delay", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := scriptedInjector{faults: map[[3]int]Fault{
				{int(tc.phase), 0, 0}: tc.fault,
			}}
			var combiner Folder
			if tc.phase == PhaseCombine {
				combiner = wcReducer{}
			}
			got, want := runWCWithInjector(t, inj, combiner)
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Fatalf("output perturbed: %v vs %v", got.Output, want.Output)
			}
			if got.Counters.Get(tc.counter) == 0 {
				t.Fatalf("fault not counted under %s:\n%s", tc.counter, got.Counters)
			}
			if got.Counters.Get(CounterRetries) != tc.wantRetries {
				t.Fatalf("retries = %d, want %d", got.Counters.Get(CounterRetries), tc.wantRetries)
			}
		})
	}
}

// TestInjectedPermanentFaultAborts: a fault that outlasts MaxAttempts
// surfaces as a job error carrying the injected message.
func TestInjectedPermanentFaultAborts(t *testing.T) {
	faults := map[[3]int]Fault{}
	for a := 0; a < 4; a++ {
		faults[[3]int{int(PhaseMap), 0, a}] = Fault{Kind: FaultPanic, Msg: "永 persistent"}
	}
	cfg := Config{Cluster: tinyCluster(), MapTasks: 1,
		Fault: FaultPolicy{MaxAttempts: 3, Injector: scriptedInjector{faults: faults}}}
	_, err := Run(cfg, wcInput("a b"), wcMapper{}, wcReducer{})
	if err == nil || !strings.Contains(err.Error(), "永 persistent") {
		t.Fatalf("err = %v, want injected message surfaced", err)
	}
}

// TestFaultPolicyMaxAttemptsOverrides: FaultPolicy.MaxAttempts wins over
// the default of 4.
func TestFaultPolicyMaxAttemptsOverrides(t *testing.T) {
	var attempts atomic.Int64
	mapper := MapFunc(func(ctx *Context, kv KV) {
		panic(fmt_attempt(attempts.Add(1)))
	})
	cfg := Config{Cluster: tinyCluster(), MapTasks: 1,
		Fault: FaultPolicy{MaxAttempts: 6}}
	if _, err := Run(cfg, wcInput("a"), mapper, wcReducer{}); err == nil {
		t.Fatal("always-failing task succeeded")
	}
	if got := attempts.Load(); got != 6 {
		t.Fatalf("attempts = %d, want 6 (policy override)", got)
	}
}

func fmt_attempt(n int64) string { return "boom " + string(rune('0'+n)) }

// TestSeededPlanDeterministicAndOrderIndependent: Decide is a pure
// function of (seed, phase, task, attempt) — same inputs, same fault, in
// any call order — and distinct seeds differ somewhere.
func TestSeededPlanDeterministicAndOrderIndependent(t *testing.T) {
	a := NewSeededPlan(PlanConfig{Seed: 42})
	b := NewSeededPlan(PlanConfig{Seed: 42})
	other := NewSeededPlan(PlanConfig{Seed: 43})
	differs := false
	for task := 19; task >= 0; task-- { // reversed order on purpose
		for _, ph := range []Phase{PhaseMap, PhaseCombine, PhaseReduce} {
			for attempt := 0; attempt < 3; attempt++ {
				x := a.Decide("", ph, task, attempt)
				if y := b.Decide("", ph, task, attempt); x != y {
					t.Fatalf("same seed diverged at (%v,%d,%d): %+v vs %+v", ph, task, attempt, x, y)
				}
				if x != other.Decide("", ph, task, attempt) {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical schedules — seed unused?")
	}
}

// TestSeededPlanRespectsContract: failures per task stay within
// MaxFailures, messages vary by attempt (transient symptom), skip-mode
// probes run clean, and a zero-rate plan injects nothing.
func TestSeededPlanRespectsContract(t *testing.T) {
	p := NewSeededPlan(PlanConfig{Seed: 7, TargetRate: 1, MaxFailures: 2})
	sawFault := false
	for task := 0; task < 30; task++ {
		for _, ph := range []Phase{PhaseMap, PhaseReduce} {
			first := p.Decide("", ph, task, 0)
			if first.Kind == FaultNone {
				continue
			}
			sawFault = true
			if p.Decide("", ph, task, 2).Kind != FaultNone && first.Kind != FaultDelay {
				t.Fatalf("(%v,%d): still failing at attempt 2 with MaxFailures 2", ph, task)
			}
			second := p.Decide("", ph, task, 1)
			if second.Kind == first.Kind && second.Msg == first.Msg && first.Msg != "" {
				t.Fatalf("(%v,%d): identical message across attempts defeats transient retry", ph, task)
			}
			if pr := p.Decide("", ph, task, ProbeAttempt); pr.Kind != FaultNone {
				t.Fatalf("(%v,%d): skip-mode probe not clean: %+v", ph, task, pr)
			}
		}
	}
	if !sawFault {
		t.Fatal("TargetRate 1 injected nothing")
	}
	quiet := NewSeededPlan(PlanConfig{Seed: 7, TargetRate: -1})
	// -1 normalises to the default rate; an explicit epsilon rate must be
	// nearly silent while remaining valid.
	_ = quiet
	none := 0
	tiny := NewSeededPlan(PlanConfig{Seed: 7, TargetRate: 1e-12})
	for task := 0; task < 50; task++ {
		if tiny.Decide("", PhaseMap, task, 0).Kind == FaultNone {
			none++
		}
	}
	if none != 50 {
		t.Fatalf("near-zero rate injected %d faults", 50-none)
	}
}
