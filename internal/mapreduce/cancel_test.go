package mapreduce

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestMidMapCancelPromptAndClean cancels the job context from inside a
// map task and asserts the job aborts mid-task — within the bounded
// CheckCancel stride, not at the next task boundary — with an error that
// is both a *TaskError and a context.Canceled, and that every spill file
// the aborted attempt wrote is removed.
func TestMidMapCancelPromptAndClean(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Enough records that the per-record stride fires mid-task: the
	// single map task sees 4000 records and cancels at the 10th.
	input := budgetInput(4000, 6, 400)
	seen := 0
	mapper := MapFunc(func(c *Context, kv KV) {
		seen++
		if seen == 10 {
			cancel()
		}
		wcMapper{}.Map(c, kv)
	})
	cfg := Config{
		Cluster: tinyCluster(), MapTasks: 1, ReduceTasks: 2,
		Context: ctx, MemoryBudgetBytes: 2 << 10, SpillDir: t.TempDir(),
	}
	_, err := Run(cfg, input, mapper, wcReducer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a *TaskError", err)
	}
	if te.Phase != PhaseMap || te.Task != 0 {
		t.Fatalf("TaskError = %+v, want map task 0", te)
	}
	// Cancellation must not be retried: the single attempt's records are
	// all the mapper ever saw (10 before cancel plus at most one stride).
	if seen > 10+cancelStride {
		t.Fatalf("mapper saw %d records after cancel; stride bound is %d", seen, cancelStride)
	}
	noSpillFiles(t, cfg.SpillDir)
}

// TestMidReduceCancelPromptAndClean cancels from inside a reduce task's
// key loop (the satellite case: a deadline firing mid-stage on a large
// fragment) and asserts prompt typed abort plus spill-file cleanup.
func TestMidReduceCancelPromptAndClean(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	input := budgetInput(24, 40, 400)
	reducer := ReduceFunc(func(c *Context, key string, vs []any) {
		cancel()
		// Simulate a huge group: the stride must interrupt this loop.
		for i := 0; i < 64*cancelStride; i++ {
			c.CheckCancel()
		}
		wcReducer{}.Reduce(c, key, vs)
	})
	cfg := Config{
		Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
		Context: ctx, MemoryBudgetBytes: 2 << 10, SpillDir: t.TempDir(),
	}
	start := time.Now()
	_, err := Run(cfg, input, wcMapper{}, reducer)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Phase != PhaseReduce {
		t.Fatalf("err = %v, want a reduce *TaskError", err)
	}
	// Promptness: one stride of no-op CheckCancels, not 64 of them per key
	// times retries.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled reduce took %v", d)
	}
	noSpillFiles(t, cfg.SpillDir)
}

// TestCancellationSkipsRetriesAndSkipMode proves a cancellation is never
// treated as a task failure to retry or a poison record to bisect: with
// skip mode armed, a cancelled job still returns the cancellation and
// quarantines nothing.
func TestCancellationSkipsRetriesAndSkipMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	mapper := MapFunc(func(c *Context, kv KV) {
		attempts++
		cancel()
		for i := 0; i < 2*cancelStride; i++ {
			c.CheckCancel()
		}
	})
	cfg := Config{
		Cluster: tinyCluster(), MapTasks: 1, ReduceTasks: 1, Context: ctx,
		Fault: FaultPolicy{SkipBadRecords: true, MaxAttempts: 4},
	}
	res, err := Run(cfg, []KV{{Key: "a", Value: "x"}, {Key: "b", Value: "y"}}, mapper, wcReducer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled job returned a result")
	}
	if attempts != 1 {
		t.Fatalf("map body ran %d times, want 1 (no retries, no bisection probes)", attempts)
	}
}

// TestEnginePanicPreservesErrorChain pins guard's contract: an
// engine-internal panic carries its error through unwrapped, while a
// user-code panic stays an opaque "task failed" error.
func TestEnginePanicPreservesErrorChain(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	if err := guard(func() { panic(&enginePanic{err: sentinel}) }); !errors.Is(err, sentinel) {
		t.Fatalf("engine panic: err = %v, want chain to sentinel", err)
	}
	if err := guard(func() { panic("user boom") }); err == nil || errors.Is(err, sentinel) {
		t.Fatalf("user panic: err = %v, want opaque task failure", err)
	}
}
