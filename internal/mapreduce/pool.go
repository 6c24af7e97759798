package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
	"time"
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

// withRetries re-attempts a failing task up to the job's MaxAttempts,
// passing the attempt index (0 = first attempt) to each try, counting
// retries in the "mapreduce.task.retries" counter, and sleeping per the
// job's backoff policy before each retry. A cancelled job stops retrying,
// during a backoff wait too. Tasks run over identical inputs on every
// attempt, so when a retry fails with exactly the first attempt's error the
// failure is deterministic and the remaining attempts are skipped — they
// cannot succeed, and burning them would both waste work and overstate the
// retry counter.
func withRetries(cfg Config, counters *Counters, attempt func(a int) error) error {
	var first, err error
	for a := 0; a < cfg.maxAttempts(); a++ {
		if a > 0 {
			if err := cfg.cancelled(); err != nil {
				return err
			}
			counters.Inc(CounterRetries, 1)
			if b := cfg.Fault.Backoff; b != nil {
				if d := b(a); d > 0 {
					counters.Inc(CounterBackoffs, 1)
					if err := cfg.wait(d); err != nil {
						return err
					}
				}
			}
		}
		if err = attempt(a); err == nil {
			return nil
		}
		if isCancellation(err) {
			// Retrying cannot outrun a cancelled context; return at once so
			// deadlines abort the job promptly instead of burning attempts.
			return err
		}
		if first == nil {
			first = err
		} else if err.Error() == first.Error() {
			return err
		}
	}
	return err
}

// runAttempts drives one task's full attempt loop: retries with backoff
// via withRetries, each attempt optionally raced against a speculative
// backup copy. Every attempt builds and returns its own Context, so
// racing copies never share state; the winning attempt's context — whose
// emissions and task-local counters are the ones the job keeps — is
// returned.
func runAttempts(cfg Config, counters *Counters, attempt func(a int) (*Context, error)) (*Context, error) {
	var winner *Context
	err := withRetries(cfg, counters, func(a int) error {
		ctx, err := speculate(cfg, counters, a, attempt)
		if err != nil {
			return err
		}
		winner = ctx
		return nil
	})
	if err != nil {
		return nil, err
	}
	return winner, nil
}

// speculate runs one attempt, launching a backup copy if the original is
// still running after the policy's SpeculativeDelay — Hadoop's straggler
// mitigation. The backup is handed the attempt index offset by
// SpeculativeAttempt so injectors can distinguish it (seeded plans run
// backups clean, modelling a healthy node). The first copy to succeed
// wins and the loser is abandoned mid-flight — safe because attempts
// share nothing; it is left to finish emitting into its own context,
// which a drainer goroutine discards (spill files included) once it
// crosses the finish line. Failed copies are discarded as their outcomes
// arrive. If every launched copy fails, the first failure is returned.
func speculate(cfg Config, counters *Counters, a int, attempt func(a int) (*Context, error)) (*Context, error) {
	delay := cfg.Fault.SpeculativeDelay
	if delay <= 0 {
		ctx, err := attempt(a)
		if err != nil {
			ctx.discard()
			return nil, err
		}
		return ctx, nil
	}
	type outcome struct {
		ctx *Context
		err error
	}
	results := make(chan outcome, 2)
	go func() {
		ctx, err := attempt(a)
		results <- outcome{ctx, err}
	}()
	launched := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var firstErr error
	for done := 0; done < launched; {
		select {
		case o := <-results:
			if o.err == nil {
				if pending := launched - done - 1; pending > 0 {
					// A loser copy is still running; reap its output —
					// including any spill files — once it finishes.
					go func() {
						for i := 0; i < pending; i++ {
							lost := <-results
							lost.ctx.discard()
						}
					}()
				}
				return o.ctx, nil
			}
			done++
			o.ctx.discard()
			if firstErr == nil {
				firstErr = o.err
			}
		case <-timer.C:
			if launched == 1 {
				counters.Inc(CounterSpeculative, 1)
				go func() {
					ctx, err := attempt(a + SpeculativeAttempt)
					results <- outcome{ctx, err}
				}()
				launched = 2
			}
		}
	}
	return nil, firstErr
}
