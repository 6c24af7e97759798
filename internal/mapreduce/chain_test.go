package mapreduce

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// chainMapFault injects into the map tasks of the job named job: fault, on
// every attempt below until — probes included when until is past them — with
// the attempt in the message unless the fault is a poison record, whose
// message must not change.
type chainMapFault struct {
	job   string
	task  int
	until int
	fault Fault
}

func (i chainMapFault) Decide(job string, phase Phase, task, attempt int) Fault {
	if job != i.job || phase != PhaseMap || task != i.task || attempt >= i.until {
		return Fault{}
	}
	f := i.fault
	if f.Kind != FaultRecordPanic {
		f.Msg = fmt.Sprintf("injected %s, attempt %d", f.Kind, attempt)
	}
	return f
}

// runChained runs a word count and chains a FirstValue dedup onto its
// output, in env, through Feed and Chain or — viaRun — through the two
// Runs they replace.
func runChained(t *testing.T, env Env, viaRun bool, input []KV) (*Result, *Pipeline) {
	t.Helper()
	env.viaRun = viaRun
	p := NewPipeline("chain", tinyCluster())
	p.Env = env
	first, err := p.Feed(Config{Name: "count", MapTasks: 2, ReduceTasks: 3}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if viaRun != (first.Output != nil) {
		t.Fatalf("viaRun=%v: Feed left Output at %d records", viaRun, len(first.Output))
	}
	second, err := p.Chain(Config{Name: "dedup", MapTasks: 3, ReduceTasks: 2}, first, FirstValue{})
	if err != nil {
		t.Fatal(err)
	}
	return second, p
}

// TestChainSkipsPoisonRecord: a FaultRecordPanic on a chained map task is
// bisected to the same input record, quarantined with the same key, value
// and cause, and leaves the same output and counters as on the []KV the
// chain replaces.
func TestChainSkipsPoisonRecord(t *testing.T) {
	input := wcInput("a b c d", "b c d e f", "c d e f g h", "x y z", "a a b")
	var got [2][]QuarantinedRecord
	var res [2]*Result
	for i, viaRun := range []bool{true, false} {
		env := Env{Fault: FaultPolicy{
			SkipBadRecords: true,
			Injector: chainMapFault{job: "dedup", task: 1, until: math.MaxInt,
				fault: Fault{Kind: FaultRecordPanic, Record: 1, Msg: "poison"}},
			Quarantine: func(r QuarantinedRecord) { got[i] = append(got[i], r) },
		}}
		res[i], _ = runChained(t, env, viaRun, input)
	}
	// The fault stays at index 1 of what is left, so the task loses records
	// until one remains.
	if len(got[1]) < 2 || got[1][0].Job != "dedup" || got[1][0].Phase != PhaseMap || got[1][0].Value == nil {
		t.Fatalf("quarantined %+v, want records of the chained job's map phase", got[1])
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("chained quarantine %+v, materialised %+v", got[1], got[0])
	}
	if !reflect.DeepEqual(res[0].Output, res[1].Output) {
		t.Fatalf("chained output %v, materialised %v", res[1].Output, res[0].Output)
	}
	if a, b := res[0].Counters.Snapshot(), res[1].Counters.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("chained counters %v, materialised %v", b, a)
	}
}

// TestChainAttemptsLeaveNoSpillFiles: a chained map attempt that fails
// after it spilled leaves no file behind under a 1 KiB budget once the job
// returns, and the output is the fault-free one.
func TestChainAttemptsLeaveNoSpillFiles(t *testing.T) {
	input := budgetInput(24, 40, 400)
	want, _ := runChained(t, Env{}, false, input)
	t.Run("retried", func(t *testing.T) {
		dir := t.TempDir()
		p := NewPipeline("chain", tinyCluster())
		p.Env = Env{SpillDir: dir, Fault: FaultPolicy{
			Injector: chainMapFault{job: "dedup", task: 0, until: 1, fault: Fault{Kind: FaultEmitPanic}},
		}}
		p.MemoryBudgetBytes = 1 << 10
		first, err := p.Feed(Config{Name: "count", MapTasks: 2, ReduceTasks: 3}, input, wcMapper{}, wcReducer{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Chain(Config{Name: "dedup", MapTasks: 3, ReduceTasks: 2}, first, FirstValue{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Output, want.Output) {
			t.Fatal("chained output differs from the fault-free run")
		}
		if res.Counters.Get(CounterRetries) == 0 || res.Metrics.SpillRuns == 0 {
			t.Fatalf("%s = %d, %d spill runs: the fault did not play out", CounterRetries,
				res.Counters.Get(CounterRetries), res.Metrics.SpillRuns)
		}
		noSpillFiles(t, dir)
	})
}

// TestChainNeedsAFedStage: Chain refuses a result whose output was
// assembled, and a chained job without a reducer.
func TestChainNeedsAFedStage(t *testing.T) {
	p := NewPipeline("chain", tinyCluster())
	ran, err := p.Run(Config{Name: "count"}, wcInput("a b"), wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Chain(Config{Name: "dedup"}, ran, FirstValue{}); err == nil {
		t.Fatal("Chain of a Run result succeeded")
	}
	fed, err := p.Feed(Config{Name: "count"}, wcInput("a b"), wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Chain(Config{Name: "dedup"}, fed, nil); err == nil {
		t.Fatal("a chained job without a reducer ran")
	}
}
