package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fsjoin/internal/filters"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/spill"
)

// crashAt is a job context that is already done with a plain error: an
// attempt whose Context.Job carries it panics at its next cancellation
// poll — mid-fragment, from inside the kernel — and, the error being no
// cancellation, is retried like any crashed attempt. fired counts the
// polls that found it.
type crashAt struct {
	context.Context
	err   error
	fired *atomic.Int64
}

var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c crashAt) Done() <-chan struct{} { return closed }
func (c crashAt) Err() error            { c.fired.Add(1); return c.err }

// watchedFilter runs the filtering job's reducer and records which attempt
// holds which scratch. It fails the test when an attempt takes a scratch
// whose previous holder never reached Cleanup — a dead attempt's — and,
// when crash says so for (task, n-th attempt to reach a fragment), makes that
// attempt crash mid-fragment. cancelAt > 0 cancels the job at the
// cancelAt-th fragment.
type watchedFilter struct {
	*filterReducer
	t        *testing.T
	crash    func(task, attempt int) bool
	cancel   context.CancelFunc
	cancelAt int64

	fired   atomic.Int64
	reduces atomic.Int64

	mu       sync.Mutex
	reached  map[int]int                           // task → attempts that reached a fragment
	attempt  map[*mapreduce.Context]bool           // attempts seen
	cleaned  map[*mapreduce.Context]bool           // attempts that reached Cleanup
	holder   map[*filterScratch]*mapreduce.Context // last attempt to take each scratch
	cleanups int
}

func watch(t *testing.T, crash func(task, attempt int) bool) (*watchedFilter, func(*filterReducer) mapreduce.Reducer) {
	w := &watchedFilter{t: t, crash: crash,
		reached: map[int]int{}, attempt: map[*mapreduce.Context]bool{},
		cleaned: map[*mapreduce.Context]bool{}, holder: map[*filterScratch]*mapreduce.Context{}}
	return w, func(r *filterReducer) mapreduce.Reducer { w.filterReducer = r; return w }
}

// FinishGroup is how the engine hands the filtering reducer each fragment.
func (w *watchedFilter) FinishGroup(ctx *mapreduce.Context, g *spill.Groups, i int) {
	w.mu.Lock()
	if !w.attempt[ctx] {
		w.attempt[ctx] = true
		if ctx.Local != nil {
			w.t.Errorf("task %d: an attempt starts with scratch", ctx.TaskID)
		}
		a := w.reached[ctx.TaskID]
		w.reached[ctx.TaskID]++
		if w.crash != nil && w.crash(ctx.TaskID, a) {
			ctx.Job.Context = crashAt{ctx.Job.Context, fmt.Errorf("kernel crash, task %d attempt %d", ctx.TaskID, a), &w.fired}
		}
	}
	w.mu.Unlock()
	if w.reduces.Add(1) == w.cancelAt {
		w.cancel()
	}
	defer w.took(ctx)
	w.filterReducer.FinishGroup(ctx, g, i)
}

// took records ctx as the holder of the scratch it holds, also when its
// FinishGroup panicked.
func (w *watchedFilter) took(ctx *mapreduce.Context) {
	s, _ := ctx.Local.(*filterScratch)
	if s == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev := w.holder[s]; prev != nil && prev != ctx && !w.cleaned[prev] {
		w.t.Errorf("task %d took the scratch of a dead attempt of task %d", ctx.TaskID, prev.TaskID)
	}
	w.holder[s] = ctx
}

func (w *watchedFilter) Cleanup(ctx *mapreduce.Context) {
	w.mu.Lock()
	w.cleaned[ctx] = true
	w.cleanups++
	w.mu.Unlock()
	w.filterReducer.Cleanup(ctx)
}

// checkFreeList: every scratch of this run on the free list was handed
// back by the Cleanup of the last attempt that held it, and there are no
// more of them than Cleanups ran; the list is the process's, so it may
// hold scratches of earlier runs too. It returns how many scratches died
// with their holder, and how many of the run's are on the list.
func (w *watchedFilter) checkFreeList(label string) (dead, handedBack int) {
	scratches.mu.Lock()
	free := slices.Clone(scratches.free)
	scratches.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range free {
		holder, ok := w.holder[s]
		if !ok {
			continue
		}
		handedBack++
		if !w.cleaned[holder] {
			w.t.Errorf("%s: a scratch on the free list was last held by an attempt that never reached Cleanup", label)
		}
	}
	if handedBack > w.cleanups {
		w.t.Errorf("%s: %d scratches on the free list after %d Cleanups", label, handedBack, w.cleanups)
	}
	for _, ctx := range w.holder {
		if !w.cleaned[ctx] {
			dead++
		}
	}
	return dead, handedBack
}

// faultsInFilterReduce injects, on the first attempt of a seeded third of
// the filtering job's reduce tasks each, a crash before the body, an emit
// panic after it (Cleanup has run) or a crash at a key group past the
// first (the scratch is held).
type faultsInFilterReduce struct{ seed int64 }

func (f faultsInFilterReduce) Decide(job string, phase mapreduce.Phase, task, attempt int) mapreduce.Fault {
	if job != "filtering" || phase != mapreduce.PhaseReduce || attempt != 0 {
		return mapreduce.Fault{}
	}
	msg := fmt.Sprintf("injected, task %d attempt %d", task, attempt)
	switch (int64(task)*2654435761 + f.seed) % 6 {
	case 0:
		return mapreduce.Fault{Kind: mapreduce.FaultPanic, Msg: msg}
	case 1:
		return mapreduce.Fault{Kind: mapreduce.FaultEmitPanic, Msg: msg}
	case 2:
		return mapreduce.Fault{Kind: mapreduce.FaultRecordPanic, Msg: msg, Record: 1 + task%3}
	}
	return mapreduce.Fault{}
}

// deterministic is what a run must reproduce whatever its faults: pairs,
// the filtering output, every kernel and verification counter, and each
// stage's metrics but its times.
func deterministic(res *Result) any {
	type stage struct {
		Job                                          string
		Shuffle, ShuffleBytes, Groups, Output, Bytes int64
		PerReduce, PerReduceBytes                    []int64
	}
	var stages []stage
	for _, m := range res.Pipeline.Stages() {
		stages = append(stages, stage{m.Job, m.ShuffleRecords, m.ShuffleBytes, m.ReduceInputGroups,
			m.OutputRecords, m.OutputBytes, m.PerReduceRecords, m.PerReduceBytes})
	}
	counters := map[string]int64{}
	for _, name := range []string{
		fragjoin.CtrComparisons, fragjoin.CtrPrunedStrL, fragjoin.CtrPrunedSegL, fragjoin.CtrPrunedSegI,
		fragjoin.CtrPrunedSegD, fragjoin.CtrEmitted, filters.CtrBitmapBuilt, filters.CtrBitmapPassed,
		filters.CtrBitmapRejected, filters.CtrVerifyCandidates,
	} {
		counters[name] = res.Pipeline.Counter(name)
	}
	return struct {
		Pairs    []result.Pair
		Filter   int64
		Stages   []stage
		Counters map[string]int64
	}{res.Pairs, res.FilterOutputRecords, stages, counters}
}

// TestDeadAttemptScratchNeverReused: the filtering job's reduce attempts
// crash before their body, at a key group past their first, mid-fragment
// inside the kernel, and after Cleanup; pairs, counters and shuffle
// metrics equal the fault-free run's at parallelism 1 and 4, and no
// attempt ever takes the scratch of one that died holding it. A job
// cancelled mid-way leaves nothing of its dead attempts on the free list
// either.
func TestDeadAttemptScratchNeverReused(t *testing.T) {
	c := randomCollection(t, 400, 60, 12, 21)
	cancelledDead := 0
	for _, method := range []fragjoin.Method{fragjoin.Prefix, fragjoin.Loop} {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("%v, parallelism %d", method, par)
			opt := Options{Theta: 0.5, VerticalPartitions: 6, HorizontalPivots: 2, JoinMethod: method,
				Cluster: smallCluster(), LocalParallelism: par}
			want, err := SelfJoin(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				w, wrap := watch(t, func(task, attempt int) bool { return attempt == 0 && (int64(task)+seed)%3 == 0 })
				fopt := opt
				fopt.Env.Fault.Injector = faultsInFilterReduce{seed}
				got, err := run(c, nil, fopt, wrap)
				if err != nil {
					t.Fatalf("%s, seed %d: %v", label, seed, err)
				}
				if !reflect.DeepEqual(deterministic(got), deterministic(want)) {
					t.Fatalf("%s, seed %d: faulted run differs from the fault-free one", label, seed)
				}
				if got.Pipeline.Counter(mapreduce.CounterRetries) == 0 || w.fired.Load() == 0 {
					t.Fatalf("%s, seed %d: %d retries, %d kernel crashes", label, seed,
						got.Pipeline.Counter(mapreduce.CounterRetries), w.fired.Load())
				}
				if dead, back := w.checkFreeList(fmt.Sprintf("%s, seed %d", label, seed)); dead == 0 || back == 0 {
					t.Fatalf("%s, seed %d: no attempt died holding scratch, or none handed one back", label, seed)
				}
			}

			// RunPhase returns once every task has, so the cancelled
			// attempts are all dead when run does.
			ctx, cancel := context.WithCancel(context.Background())
			w, wrap := watch(t, nil)
			w.cancel, w.cancelAt = cancel, 7
			copt := opt
			copt.Env.Context = ctx
			if _, err := run(c, nil, copt, wrap); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled run returned %v", label, err)
			}
			dead, _ := w.checkFreeList(label + ", cancelled")
			cancelledDead += dead
		}
	}
	if cancelledDead == 0 {
		t.Fatal("no cancelled attempt died holding scratch")
	}
}
