package mapreduce

import (
	"fmt"
	"time"
)

// This file is the distributed (multi-process) execution path, DESIGN.md
// §15. The model is SPMD: every participant — the driver and each worker
// process — deterministically replays the same pipeline over the same
// input, but executes only the tasks its Executor leases from the
// supervisor. All task artifacts (map partitions, reduce outputs,
// per-task counter snapshots and metas) commit through a shared
// filesystem transport, so after each phase barrier every participant
// assembles the identical Result from the transport alone — whether it
// executed zero tasks or all of them. Determinism is what makes worker
// loss recoverable: a reassigned task re-executes to byte-identical
// output, so generation-stamped, newest-complete-wins delivery is
// trivially idempotent.

// Executor leases tasks for the distributed path. Implementations are
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

// notifyBoundary announces a kill boundary to executors that observe them.
func notifyBoundary(ex Executor, kind string) {
	if o, ok := ex.(boundaryObserver); ok {
		o.atBoundary(kind)
	}
}

// runDistributed executes one job as an SPMD participant. It differs from
// runLocal in three ways: tasks are executed only when leased, every task
// measurement travels through TaskMeta (with a task-local counter
// snapshot) instead of being recorded in place, and the Result is
// assembled from the transport after each barrier.
func runDistributed(env *jobEnv, input []KV) (*Result, error) {
	cfg, cl, mapTasks, reduceTasks := env.cfg, env.cl, env.mapTasks, env.reduceTasks
	ex := env.cfg.Runtime.Executor
	if cfg.Runtime.Transport == nil {
		return nil, fmt.Errorf("mapreduce: job %q: a distributed run requires a shared filesystem transport", cfg.Name)
	}
	jt, err := env.openTransport()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
	}
	defer jt.Close()
	res := &Result{Counters: NewCounters()}
	m := &res.Metrics
	m.Job = cfg.Name
	m.MapTasks = mapTasks
	m.ReduceTasks = reduceTasks
	m.MapInputRecords = int64(len(input))
	wallStart := time.Now()
	splits := splitInput(input, mapTasks)
	mapOnly := env.reducer == nil

	// ---- Map phase ----
	lease, err := ex.BeginPhase(cfg.Name, PhaseMap, mapTasks)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
	}
	for {
		if err := cfg.cancelled(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
		}
		t, ok, err := lease.Next()
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
		}
		if !ok {
			break
		}
		tc := NewCounters()
		start := time.Now()
		ctx, err := env.runMapAttempts(tc, t, splits[t])
		if err != nil {
			return nil, taskErr(cfg.Name, PhaseMap, t, err)
		}
		elapsed := time.Since(start)
		var (
			meta TaskMeta
			info CommitInfo
			cerr error
		)
		if mapOnly {
			ctx.flushCounters()
			meta = TaskMeta{TaskNanos: int64(elapsed), Counters: tc.Snapshot()}
			notifyBoundary(ex, "map")
			info, cerr = jt.CommitOutput(t, ctx.out.AppendTo(make([]KV, 0, ctx.out.Len())), meta)
		} else {
			recs, bytes, st, ferr := env.finishMapTask(tc, ctx)
			if ferr != nil {
				return nil, taskErr(cfg.Name, PhaseMap, t, ferr)
			}
			// A scheduled transport fault is counted into the task-local
			// set before the snapshot (the counters must travel with the
			// meta) and realised right after the commit.
			df := cfg.decideFault(PhaseMap, t, DeliveryAttempt)
			if isDeliveryKind(df.Kind) {
				countDeliveryFault(df, tc, env.reduceTasks)
			}
			meta = TaskMeta{
				Records: recs, Bytes: bytes, TaskNanos: int64(elapsed),
				Spill: st, Counters: tc.Snapshot(),
			}
			notifyBoundary(ex, "map")
			info, cerr = jt.CommitMap(t, ctx.shuffle, meta)
			if cerr == nil && isDeliveryKind(df.Kind) {
				if _, derr := jt.Redeliver(t); derr != nil {
					return nil, taskErr(cfg.Name, PhaseMap, t, derr)
				}
			}
		}
		if cerr != nil {
			return nil, taskErr(cfg.Name, PhaseMap, t, cerr)
		}
		notifyBoundary(ex, "handoff")
		if err := lease.Done(t, info.Redelivered); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
		}
	}
	if err := lease.Barrier(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
	}

	if mapOnly {
		// Assemble the map-only Result from committed outputs in task
		// order; every participant computes identical totals.
		m.MapTaskTime = make([]time.Duration, mapTasks)
		for t := 0; t < mapTasks; t++ {
			out, meta, err := jt.FetchOutput(t)
			if err != nil {
				return nil, taskErr(cfg.Name, PhaseMap, t, err)
			}
			m.MapTaskTime[t] = time.Duration(meta.TaskNanos)
			mergeTaskCounters(res.Counters, meta.Counters)
			for _, kv := range out {
				m.ShuffleRecords++
				m.ShuffleBytes += int64(kvBytes(kv))
			}
			res.Output = append(res.Output, out...)
		}
		m.MapOutputRecords = m.ShuffleRecords
		m.MapOutputBytes = m.ShuffleBytes
		m.OutputRecords = int64(len(res.Output))
		m.OutputBytes = m.ShuffleBytes
		m.ReduceTasks = 0
		m.SimulatedMapTime = simPhase(cl, m.MapTaskTime)
		m.SimulatedTotalTime = m.SimulatedMapTime
		m.WallTime = time.Since(wallStart)
		return res, nil
	}

	// Assemble map-phase metrics and counters from committed metas.
	m.MapTaskTime = make([]time.Duration, mapTasks)
	for t := 0; t < mapTasks; t++ {
		meta, err := jt.MapMeta(t)
		if err != nil {
			return nil, taskErr(cfg.Name, PhaseMap, t, err)
		}
		m.MapTaskTime[t] = time.Duration(meta.TaskNanos)
		m.ShuffleRecords += meta.Records
		m.ShuffleBytes += meta.Bytes
		m.SpillRuns += meta.Spill.Runs
		m.SpillBytes += meta.Spill.SpilledBytes
		if meta.Spill.PeakBytes > m.ShufflePeakBytes {
			m.ShufflePeakBytes = meta.Spill.PeakBytes
		}
		mergeTaskCounters(res.Counters, meta.Counters)
	}
	m.MapOutputRecords = m.ShuffleRecords
	m.MapOutputBytes = m.ShuffleBytes

	// ---- Reduce phase ----
	lease, err = ex.BeginPhase(cfg.Name, PhaseReduce, reduceTasks)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
	}
	for {
		if err := cfg.cancelled(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
		}
		t, ok, err := lease.Next()
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
		}
		if !ok {
			break
		}
		in, gerr := env.fetchReduceInput(jt, t)
		if gerr != nil {
			return nil, taskErr(cfg.Name, PhaseReduce, t, gerr)
		}
		tc := NewCounters()
		if in.maxWays > 1 {
			tc.Max(CounterSpillMergeWays, int64(in.maxWays))
		}
		start := time.Now()
		ctx, err := env.runReduceAttempts(tc, t, in)
		if err != nil {
			return nil, taskErr(cfg.Name, PhaseReduce, t, err)
		}
		elapsed := time.Since(start)
		ctx.flushCounters()
		var groupSpill time.Duration
		for _, b := range in.gBytes {
			groupSpill += cl.groupSpillTime(b)
		}
		meta := TaskMeta{
			Records: in.recs, Bytes: in.bytes, Groups: int64(len(in.keys)),
			TaskNanos: int64(elapsed), GroupSpillNanos: int64(groupSpill),
			Counters: tc.Snapshot(),
		}
		notifyBoundary(ex, "reduce")
		info, cerr := jt.CommitOutput(t, ctx.out.AppendTo(make([]KV, 0, ctx.out.Len())), meta)
		if cerr != nil {
			return nil, taskErr(cfg.Name, PhaseReduce, t, cerr)
		}
		if err := lease.Done(t, info.Redelivered); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
		}
	}
	if err := lease.Barrier(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
	}

	// Assemble the reduce-phase Result from committed outputs and metas.
	m.PerReduceRecords = make([]int64, reduceTasks)
	m.PerReduceBytes = make([]int64, reduceTasks)
	m.ReduceTaskTime = make([]time.Duration, reduceTasks)
	m.GroupSpillTime = make([]time.Duration, reduceTasks)
	for t := 0; t < reduceTasks; t++ {
		out, meta, err := jt.FetchOutput(t)
		if err != nil {
			return nil, taskErr(cfg.Name, PhaseReduce, t, err)
		}
		m.PerReduceRecords[t] = meta.Records
		m.PerReduceBytes[t] = meta.Bytes
		m.ReduceTaskTime[t] = time.Duration(meta.TaskNanos)
		m.GroupSpillTime[t] = time.Duration(meta.GroupSpillNanos)
		m.ReduceInputGroups += meta.Groups
		mergeTaskCounters(res.Counters, meta.Counters)
		res.Output = append(res.Output, out...)
	}
	m.OutputRecords = int64(len(res.Output))
	for _, kv := range res.Output {
		m.OutputBytes += int64(kvBytes(kv))
	}
	applyCostModel(cl, m, mapTasks, reduceTasks)
	m.WallTime = time.Since(wallStart)
	return res, nil
}
