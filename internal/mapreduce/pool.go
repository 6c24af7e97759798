package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
)

// AutoParallelism, assigned to Config.Parallelism (or the facade's
// LocalParallelism), runs one task worker per available CPU core.
const AutoParallelism = -1

// RunPhase executes n independent tasks, sequentially or on a bounded
// worker pool; the output slots are per-task, so results assemble in task
// order regardless of completion order. The first error wins. A negative
// parallelism means one worker per core (AutoParallelism).
func RunPhase(parallelism, n int, work func(t int) error) error {
	if parallelism < 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism <= 1 || n <= 1 {
		for t := 0; t < n; t++ {
			if err := work(t); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, parallelism)
	for t := 0; t < n; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := work(t); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	return firstErr
}

// guard converts a task panic into an error, Hadoop-style task isolation.
// Engine-internal failures travel as *enginePanic and come back out as
// their carried error — errors.Is/As chain intact, which is what lets a
// mid-task cancellation surface as context.Canceled — while user-code
// panics stay opaque "task failed" errors.
func guard(task func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(*enginePanic); ok {
				err = p.err
				return
			}
			err = fmt.Errorf("task failed: %v", r)
		}
	}()
	task()
	return nil
}

// withRetries is one task's attempt loop. It runs attempt a = 0, 1, …
// one at a time, up to the job's MaxAttempts, and returns the first
// successful attempt's context — the one whose emissions and task-local
// counters the job keeps. Each failed attempt's context is discarded,
// spill files included, before the next attempt starts, so nothing of a
// failed attempt outlives the loop. Retries are counted in the
// "mapreduce.task.retries" counter. A cancelled job stops retrying. Tasks
// run over identical inputs on every attempt, so when a retry fails with
// exactly the first attempt's error the failure is deterministic and the
// remaining attempts are skipped — they cannot succeed, and burning them
// would both waste work and overstate the retry counter.
func withRetries(cfg Config, counters *Counters, attempt func(a int) (*Context, error)) (*Context, error) {
	var first, err error
	for a := 0; a < cfg.maxAttempts(); a++ {
		if a > 0 {
			if err := cfg.cancelled(); err != nil {
				return nil, err
			}
			counters.Inc(CounterRetries, 1)
		}
		var ctx *Context
		if ctx, err = attempt(a); err == nil {
			return ctx, nil
		}
		ctx.discard()
		if isCancellation(err) {
			// Retrying cannot outrun a cancelled context; return at once so
			// deadlines abort the job promptly instead of burning attempts.
			return nil, err
		}
		if first == nil {
			first = err
		} else if err.Error() == first.Error() {
			return nil, err
		}
	}
	return nil, err
}
