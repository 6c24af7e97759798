package mapreduce

import (
	"fmt"
	"sync"
)

// This file implements skip mode (FaultPolicy.SkipBadRecords): Hadoop's
// answer to the poison record. The attempt loop already classifies a
// failure as deterministic when a retry reproduces the first attempt's
// exact error (pool.go); once that happens, retrying cannot help — but
// the job need not die if a single input unit is to blame. Skip mode
// re-runs the task body over input prefixes with a throwaway context
// (probes), binary-searches the smallest failing prefix — valid because
// a deterministic single-record failure makes "prefix of length n fails"
// monotone in n — quarantines the unit at its end, and re-enters the
// real attempt loop without it, repeating while distinct poisons remain.
// DESIGN.md §9 documents the model.

// skipRun drives the skip loop for one task. probe(n) runs the task body
// over the first n units of the current working set and returns its
// failure, if any; quarantine(i, cause) removes unit i from the working
// set and charges the job-wide budget (its error aborts the job); rerun
// re-executes the real attempt loop over the shrunken working set. size
// reports the working set's current length. orig is the attempt-loop
// failure that triggered skip mode, returned verbatim whenever the
// failure turns out not to be record-skippable. A probe or rerun that
// fails incurably ends skip mode with that error: a probe the job's
// context stopped says nothing about the record it stopped at, and a key
// longer than the shuffle takes is a defect of the code that emits it, not
// of a record to quarantine.
func skipRun(size func() int, probe func(n int) error,
	quarantine func(i int, cause error) error,
	rerun func() (*Context, error), orig error) (*Context, error) {
	for {
		n := size()
		cause := probe(n)
		if cause == nil {
			// The task body alone cannot reproduce the failure — a
			// transient fault, or one in a part of the attempt probes do
			// not replay (combiner, injected attempt-scoped faults).
			return nil, orig
		}
		if incurable(cause) {
			return nil, cause
		}
		if err := probe(0); err != nil {
			if incurable(err) {
				return nil, err
			}
			// Even the empty prefix fails: Setup/Cleanup is broken, no
			// record is to blame.
			return nil, orig
		}
		// Invariant: probe(lo) succeeds, probe(hi) fails.
		lo, hi := 0, n
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			err := probe(mid)
			switch {
			case incurable(err):
				return nil, err
			case err != nil:
				hi, cause = mid, err
			default:
				lo = mid
			}
		}
		if err := quarantine(hi-1, cause); err != nil {
			return nil, err
		}
		ctx, err := rerun()
		if err == nil || incurable(err) {
			return ctx, err
		}
		// Another poison (or a genuinely new failure) — keep bisecting.
		orig = err
	}
}

// quarantineState is one job's shared skip bookkeeping: the budget is
// charged here, once across concurrent tasks (their counters are
// task-local), and the mutex also serialises the user's Quarantine sink.
type quarantineState struct {
	mu      sync.Mutex
	skipped int64
}

// quarantine charges one skipped unit against the job budget and reports
// it to the policy's sink. Exceeding the budget returns the abort error.
func (q *quarantineState) quarantine(cfg Config, counters *Counters, rec QuarantinedRecord) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.skipped++
	counters.Inc(CounterRecordsSkipped, 1)
	if limit := cfg.Fault.maxSkippedRecords(); q.skipped > limit {
		return fmt.Errorf("mapreduce: job %q: %d skipped records exceed MaxSkippedRecords %d (last: %s)",
			cfg.Name, q.skipped, limit, rec.Err)
	}
	if sink := cfg.Fault.Quarantine; sink != nil {
		sink(rec)
	}
	return nil
}

// skipUnits re-runs a deterministically failing task with its poison units
// — a map task's input records, a reduce task's sorted key groups —
// bisected out. Probes run body alone over prefixes of the working set,
// under the ProbeAttempt fault decision and into a throwaway context that
// drops what it emits: a failing combiner is deliberately not reproduced,
// so it stays unskippable, and nor is a refused emission, which is
// incurable. rerun must execute the task's full attempt loop
// over the given units.
func skipUnits[U any](env *jobEnv, counters *Counters, phase Phase, task int, units []U,
	body taskBody[U], describe func(U) (key string, value any),
	rerun func(units []U) (*Context, error), orig error) (*Context, error) {
	cfg := env.cfg
	work := append([]U(nil), units...)
	pf := cfg.decideFault(phase, task, ProbeAttempt)
	probe := func(n int) error {
		sctx := &Context{TaskID: task, Job: cfg, probe: true}
		return guard(func() { body(sctx, work[:n], pf, nil) })
	}
	quarantine := func(i int, cause error) error {
		key, value := describe(work[i])
		work = append(work[:i:i], work[i+1:]...)
		return env.quarantine.quarantine(cfg, counters, QuarantinedRecord{
			Job: cfg.Name, Phase: phase, Task: task,
			Key: key, Value: value, Err: cause.Error(),
		})
	}
	return skipRun(func() int { return len(work) }, probe, quarantine,
		func() (*Context, error) { return rerun(work) }, orig)
}
