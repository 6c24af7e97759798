package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// flakyMapper panics on its first failUntil attempts of each task, then
// behaves like wcMapper — the classic transient-task-failure scenario. The
// panic message carries the attempt number: a transient fault presents a
// different symptom each time, unlike a deterministic bug, which the engine
// gives up on after one identical confirming retry. The attempt counters
// are mutex-guarded: with Parallelism > 1 concurrent tasks hit the shared
// map.
type flakyMapper struct {
	mu        sync.Mutex
	attempts  map[int]int
	failUntil int
}

func (f *flakyMapper) Map(ctx *Context, kv KV) {
	f.mu.Lock()
	if f.attempts[ctx.TaskID] < f.failUntil {
		f.attempts[ctx.TaskID]++
		n := f.attempts[ctx.TaskID]
		f.mu.Unlock()
		panic(fmt.Sprintf("injected map failure (attempt %d)", n))
	}
	f.mu.Unlock()
	for _, w := range strings.Fields(kv.Value.(string)) {
		ctx.Emit(w, int64(1))
	}
}

func TestTransientMapFailureRetried(t *testing.T) {
	input := wcInput("a b a", "b c")
	want, err := Run(Config{Cluster: tinyCluster()}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		flaky := &flakyMapper{attempts: map[int]int{}, failUntil: 2}
		res, err := Run(Config{Cluster: tinyCluster(), Fault: FaultPolicy{MaxAttempts: 4}, Parallelism: par},
			input, flaky, wcReducer{})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(res.Output, want.Output) {
			t.Fatalf("parallelism %d: retried job output differs: %v vs %v",
				par, res.Output, want.Output)
		}
		if res.Counters.Get(CounterRetries) == 0 {
			t.Fatalf("parallelism %d: no retries counted", par)
		}
	}
}

func TestPermanentMapFailureAborts(t *testing.T) {
	for _, par := range []int{1, 4} {
		flaky := &flakyMapper{attempts: map[int]int{}, failUntil: 1 << 30}
		_, err := Run(Config{Cluster: tinyCluster(), Fault: FaultPolicy{MaxAttempts: 3}, Parallelism: par},
			wcInput("a"), flaky, wcReducer{})
		if err == nil {
			t.Fatalf("parallelism %d: permanently failing task did not abort the job", par)
		}
		if !strings.Contains(err.Error(), "injected map failure") {
			t.Fatalf("parallelism %d: error lost the cause: %v", par, err)
		}
	}
}

// TestDeterministicFailureStopsEarly: a task that fails identically on its
// retry is a deterministic bug; the engine must stop after one confirming
// retry instead of burning all MaxAttempts.
func TestDeterministicFailureStopsEarly(t *testing.T) {
	attempts := 0
	mapper := MapFunc(func(ctx *Context, kv KV) {
		attempts++
		panic("deterministic boom")
	})
	_, err := Run(Config{Cluster: tinyCluster(), MapTasks: 1, Fault: FaultPolicy{MaxAttempts: 4}}, wcInput("only"), mapper, wcReducer{})
	if err == nil {
		t.Fatal("deterministically failing task did not abort the job")
	}
	if !strings.Contains(err.Error(), "deterministic boom") {
		t.Fatalf("error lost the cause: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (first failure + one confirming retry)", attempts)
	}
}

// flakyReducer panics on its first attempt of every task; mutex-guarded
// for the same reason as flakyMapper.
type flakyReducer struct {
	mu       sync.Mutex
	attempts map[int]int
}

func (f *flakyReducer) Reduce(ctx *Context, key string, values []any) {
	f.mu.Lock()
	if f.attempts[ctx.TaskID] == 0 {
		f.attempts[ctx.TaskID]++
		f.mu.Unlock()
		panic("injected reduce failure")
	}
	f.mu.Unlock()
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	ctx.Emit(key, n)
}

func TestTransientReduceFailureRetried(t *testing.T) {
	input := wcInput("x y x", "y z")
	want, err := Run(Config{Cluster: tinyCluster()}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := Run(Config{Cluster: tinyCluster(), Parallelism: par},
			input, wcMapper{}, &flakyReducer{attempts: map[int]int{}})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(res.Output, want.Output) {
			t.Fatalf("parallelism %d: reduce retry changed output", par)
		}
	}
}

func TestRetriesDoNotDuplicateEmissions(t *testing.T) {
	// A task that emits before panicking must not leak its partial output.
	calls := 0
	mapper := MapFunc(func(ctx *Context, kv KV) {
		ctx.Emit("k", int64(1))
		if calls == 0 {
			calls++
			panic("after emit")
		}
	})
	res, err := Run(Config{Cluster: tinyCluster(), MapTasks: 1}, wcInput("only"), mapper, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0].Value.(int64) != 1 {
		t.Fatalf("partial emissions leaked: %v", res.Output)
	}
}

// TestWithRetriesTable pins withRetries' edge cases: the MaxAttempts 0/1
// boundaries, error-message propagation from the final attempt, and the
// retry counter under the identical-deterministic-panic early stop.
func TestWithRetriesTable(t *testing.T) {
	// failures[i] is attempt i's error message ("" = success); attempts
	// beyond the slice succeed.
	cases := []struct {
		name         string
		maxAttempts  int
		failures     []string
		wantErr      string // "" = success expected
		wantAttempts int
		wantRetries  int64
	}{
		{
			name:        "zero max attempts means four",
			maxAttempts: 0,
			failures:    []string{"e0", "e1", "e2", "e3", "e4"},
			wantErr:     "e3", wantAttempts: 4, wantRetries: 3,
		},
		{
			name:        "one attempt means no retry",
			maxAttempts: 1,
			failures:    []string{"only"},
			wantErr:     "only", wantAttempts: 1, wantRetries: 0,
		},
		{
			name:        "success on first attempt",
			maxAttempts: 3,
			failures:    nil,
			wantErr:     "", wantAttempts: 1, wantRetries: 0,
		},
		{
			name:        "success on final attempt",
			maxAttempts: 3,
			failures:    []string{"a", "b"},
			wantErr:     "", wantAttempts: 3, wantRetries: 2,
		},
		{
			name:        "final attempt error propagates verbatim",
			maxAttempts: 3,
			failures:    []string{"first", "second", "third"},
			wantErr:     "third", wantAttempts: 3, wantRetries: 2,
		},
		{
			name:        "identical deterministic failure stops after one confirming retry",
			maxAttempts: 4,
			failures:    []string{"same", "same", "same", "same"},
			wantErr:     "same", wantAttempts: 2, wantRetries: 1,
		},
		{
			name:        "distinct then identical failure stops at the repeat",
			maxAttempts: 8,
			failures:    []string{"flaky", "flaky", "flaky", "flaky"},
			wantErr:     "flaky", wantAttempts: 2, wantRetries: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counters := NewCounters()
			attempts := 0
			won := &Context{}
			ctx, err := withRetries(Config{Fault: FaultPolicy{MaxAttempts: tc.maxAttempts}}, counters, func(a int) (*Context, error) {
				if a != attempts {
					t.Fatalf("attempt index %d, want %d", a, attempts)
				}
				attempts++
				if a < len(tc.failures) && tc.failures[a] != "" {
					return &Context{}, errors.New(tc.failures[a])
				}
				return won, nil
			})
			if tc.wantErr == "" {
				if err != nil || ctx != won {
					t.Fatalf("ctx, err = %p, %v, want the winning attempt's context", ctx, err)
				}
			} else if err == nil || err.Error() != tc.wantErr || ctx != nil {
				t.Fatalf("ctx, err = %p, %v, want nil, %q", ctx, err, tc.wantErr)
			}
			if attempts != tc.wantAttempts {
				t.Fatalf("attempts = %d, want %d", attempts, tc.wantAttempts)
			}
			if got := counters.Get(CounterRetries); got != tc.wantRetries {
				t.Fatalf("retries = %d, want %d", got, tc.wantRetries)
			}
		})
	}
}
