package mapreduce

import "errors"

// This file is the engine's scheduler seam, DESIGN.md §15: who runs a
// task is the one thing that differs between an in-process job and a
// multi-process one. The multi-process model is SPMD: every participant —
// the driver and each worker process — deterministically replays the same
// pipeline over the same input, but executes only the tasks its Executor
// leases from the supervisor. All task artifacts (map partitions, task
// outputs, per-task counter snapshots and metas) commit through the job
// transport, so after each phase barrier every participant assembles the
// identical Result from the transport alone — whether it executed zero
// tasks or all of them. Determinism is what makes worker loss recoverable:
// a reassigned task re-executes to byte-identical output, so
// generation-stamped, newest-complete-wins delivery is trivially
// idempotent.

// Executor leases tasks to a multi-process participant. Implementations are
// WorkerClient (a supervised worker or the driver); tests may supply
// in-process fakes.
type Executor interface {
	// BeginPhase announces the next phase in the participant's
	// deterministic phase sequence and returns its lease source. n is the
	// phase's task count; every participant must announce identical
	// (job, phase, n) sequences or the supervisor aborts the run.
	BeginPhase(job string, phase Phase, n int) (PhaseLease, error)
}

// PhaseLease hands out one phase's tasks.
type PhaseLease interface {
	// Next blocks until a task is granted (ok true), the phase has no
	// further work for this participant (ok false), or the run is dead.
	Next() (task int, ok bool, err error)
	// Done reports task completion after its artifact committed.
	// redelivered notes that the commit duplicated an earlier generation.
	Done(task int, redelivered bool) error
	// Barrier blocks until every task of the phase has committed.
	Barrier() error
}

// boundaryObserver is an optional Executor extension: the engine announces
// the injected kill boundaries ("map" before a map commit, "handoff"
// after a map commit but before its Done, "reduce" before an output
// commit) so a worker under the kill harness can SIGKILL itself there.
type boundaryObserver interface {
	atBoundary(kind string)
}

// atBoundary announces a kill boundary to an executor that observes them.
func (env *jobEnv) atBoundary(kind string) {
	if o, ok := env.cfg.Runtime.Executor.(boundaryObserver); ok {
		o.atBoundary(kind)
	}
}

// schedule runs one phase's n tasks and returns once all of them have
// committed. It is the only code that asks who executes a task: with no
// Executor, this process does, on the bounded pool; with one, the process
// runs the tasks it is leased — the same task body — and waits at the
// phase barrier for everyone else's.
func (env *jobEnv) schedule(phase Phase, n int, task func(t int) (CommitInfo, error)) error {
	cfg := env.cfg
	ex := cfg.Runtime.Executor
	if ex == nil {
		return RunPhase(cfg.Parallelism, n, func(t int) error {
			if err := cfg.cancelled(); err != nil {
				return env.jobErr(err)
			}
			_, err := task(t)
			return err
		})
	}
	if cfg.Runtime.Transport == nil {
		return env.jobErr(errors.New("a distributed run requires a shared filesystem transport"))
	}
	lease, err := ex.BeginPhase(cfg.Name, phase, n)
	if err != nil {
		return env.jobErr(err)
	}
	for {
		if err := cfg.cancelled(); err != nil {
			return env.jobErr(err)
		}
		t, ok, err := lease.Next()
		if err != nil {
			return env.jobErr(err)
		}
		if !ok {
			break
		}
		info, err := task(t)
		if err != nil {
			return err
		}
		if err := lease.Done(t, info.Redelivered); err != nil {
			return env.jobErr(err)
		}
	}
	if err := lease.Barrier(); err != nil {
		return env.jobErr(err)
	}
	return nil
}
