package mapreduce

import (
	"fmt"

	"fsjoin/internal/spill"
)

// This file defines the transport seam of the engine: the map→reduce
// hand-off (and, for distributed runs, the reduce-output hand-off) sits
// behind the Transport interface so the same job logic drives both the
// historical in-process in-memory path and the multi-process filesystem
// shuffle (DESIGN.md §15). The default — Config.Runtime left zero — is
// MemoryTransport, which preserves the engine's original behaviour
// byte-for-byte: each map task's pre-partitioned, spill-aware shuffleSink
// is handed to the reduce phase directly.

// Transport counter names. Supervised multi-process runs report them
// through fsjoin.Stats; chaos-injected transport faults (FaultWorkerLoss,
// FaultRedeliver) record the same names in the job counters.
const (
	// CounterHeartbeats counts worker heartbeats the supervisor received.
	CounterHeartbeats = "transport.heartbeats"
	// CounterWorkerDeaths counts workers declared dead (heartbeat timeout,
	// control-connection EOF, or wait failure).
	CounterWorkerDeaths = "transport.worker.deaths"
	// CounterTasksReassigned counts task leases granted to a new worker
	// after the previous holder died or stalled past its deadline.
	CounterTasksReassigned = "transport.tasks.reassigned"
	// CounterPartitionsRedelivered counts partition deliveries that
	// duplicated an already-committed generation (idempotent delivery).
	CounterPartitionsRedelivered = "transport.partitions.redelivered"
)

// Runtime selects the execution substrate for a job: the shuffle transport
// and, for multi-process runs, the task executor that leases tasks from a
// supervisor. The zero value is the in-process engine with the in-memory
// transport — the default and the fastest path.
type Runtime struct {
	// Transport carries map output to the reduce phase; nil means the
	// in-memory transport.
	Transport Transport
	// Executor, when non-nil, switches the job to the distributed SPMD
	// path: the process executes only the tasks its executor leases, all
	// task artifacts flow through the (then mandatory filesystem)
	// transport, and every participant assembles the identical Result
	// after each phase barrier.
	Executor Executor
}

// TransportSpec identifies one job execution to a Transport. Every SPMD
// participant opens the same sequence of specs, which is what lets a
// filesystem transport lay out one stage directory per job without any
// coordination beyond determinism.
type TransportSpec struct {
	// Job is the job name (Config.Name).
	Job string
	// MapTasks and ReduceTasks are the resolved task counts.
	MapTasks    int
	ReduceTasks int
}

// fingerprint is the validation string written into transport frames; a
// reader that opens a frame from a different job shape fails fast instead
// of decoding garbage.
func (s TransportSpec) fingerprint() string {
	return fmt.Sprintf("%s|m%d|r%d", s.Job, s.MapTasks, s.ReduceTasks)
}

// Transport opens per-job transports. Implementations must allow the same
// Transport value to be shared by every stage of a pipeline (Open is
// called once per stage, in deterministic order).
type Transport interface {
	Open(spec TransportSpec) (JobTransport, error)
}

// CommitInfo reports what a commit did.
type CommitInfo struct {
	// Redelivered is true when the commit duplicated partitions that a
	// previous complete commit of the same task already delivered.
	Redelivered bool
	// Partitions is the number of reduce partitions the commit carried
	// (1 for reduce-output commits).
	Partitions int
}

// TaskMeta travels with a committed task: the measured facts the driver
// needs to assemble Metrics and Counters without having executed the task
// itself. The in-memory transport ignores it (the local engine measures
// in place).
type TaskMeta struct {
	// Records and Bytes are the task's shuffle (map) or fetched-input
	// (reduce) totals.
	Records int64 `json:"records,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	// Groups is the reduce task's key-group count.
	Groups int64 `json:"groups,omitempty"`
	// TaskNanos is the measured task execution time.
	TaskNanos int64 `json:"task_nanos,omitempty"`
	// GroupSpillNanos is the reduce task's external-memory charge for
	// oversized key groups (cost model).
	GroupSpillNanos int64 `json:"group_spill_nanos,omitempty"`
	// Spill is the winning map attempt's out-of-core shuffle accounting.
	Spill spill.Stats `json:"spill,omitempty"`
	// Counters is the task-local counter snapshot (distributed runs only;
	// the local engine flushes counters into the job directly).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// JobTransport is one job's shuffle channel. The local engine uses
// CommitMap / FetchPartition / ReleasePartition / Close; the distributed
// path additionally publishes reduce outputs and per-task metadata so a
// non-executing participant can assemble the full Result.
//
// Delivery is idempotent: committing a task that was already committed
// must replace or duplicate it harmlessly (the engine's tasks are
// deterministic, so any complete commit of a task carries identical
// bytes) and report Redelivered. Redeliver republishes an existing
// commit as a newer generation — the primitive behind the chaos
// harness's worker-loss and redelivery fault kinds.
type JobTransport interface {
	// CommitMap publishes map task t's partitioned shuffle output. The
	// transport takes ownership of the sink: in-memory it is held live
	// for the reduce phase; a serialising transport drains it into its
	// frames and closes it.
	CommitMap(t int, sink *shuffleSink, meta TaskMeta) (CommitInfo, error)
	// Redeliver republishes task t's committed partitions as a newer
	// generation, simulating (or performing) a reassigned execution's
	// duplicate delivery.
	Redeliver(t int) (CommitInfo, error)
	// FetchPartition streams map task t's partition r in committed order,
	// reporting the merge fan-in that produced it (spill accounting).
	FetchPartition(t, r int, emit func(key string, value any, bytes int64)) (ways int, err error)
	// PartitionRecords returns how many records FetchPartition(t, r) will
	// emit at most — what a reduce task sizes its input by — or 0 when the
	// partition cannot be read (FetchPartition then reports why).
	PartitionRecords(t, r int) int
	// ReleasePartition reclaims partition (t, r) once a reduce task has
	// consumed it. Transports that must keep partitions for possible
	// redelivery treat it as a no-op.
	ReleasePartition(t, r int)
	// MapMeta returns the meta committed with map task t.
	MapMeta(t int) (TaskMeta, error)
	// CommitOutput publishes task t's final output (reduce output, or map
	// output for map-only jobs).
	CommitOutput(t int, out []KV, meta TaskMeta) (CommitInfo, error)
	// FetchOutput returns task t's committed output and meta.
	FetchOutput(t int) ([]KV, TaskMeta, error)
	// Close releases everything the job still holds. Abort paths call it
	// with partitions unconsumed.
	Close()
}

// MemoryTransport returns the default in-process transport: committed
// sinks are held live and the reduce phase drains them directly, exactly
// the engine's historical hand-off.
func MemoryTransport() Transport { return memTransport{} }

type memTransport struct{}

// Open implements Transport.
func (memTransport) Open(spec TransportSpec) (JobTransport, error) {
	return &memJob{sinks: make([]*shuffleSink, spec.MapTasks), reducers: spec.ReduceTasks}, nil
}

// memJob holds one job's committed sinks. Not safe for cross-process use;
// the distributed path requires a filesystem transport.
type memJob struct {
	sinks    []*shuffleSink
	reducers int
}

// CommitMap implements JobTransport by keeping the sink live. A repeated
// commit of the same task replaces the previous sink (newest wins).
func (j *memJob) CommitMap(t int, sink *shuffleSink, meta TaskMeta) (CommitInfo, error) {
	info := CommitInfo{Partitions: j.reducers}
	if prev := j.sinks[t]; prev != nil {
		info.Redelivered = true
		if prev != sink {
			prev.close()
		}
	}
	j.sinks[t] = sink
	return info, nil
}

// Redeliver implements JobTransport. In memory the committed sink already
// is the newest generation, so redelivery is the identity — which is the
// idempotence contract the fault kinds exist to exercise.
func (j *memJob) Redeliver(t int) (CommitInfo, error) {
	if j.sinks[t] == nil {
		return CommitInfo{}, fmt.Errorf("mapreduce: redeliver of uncommitted map task %d", t)
	}
	return CommitInfo{Redelivered: true, Partitions: j.reducers}, nil
}

// FetchPartition implements JobTransport.
func (j *memJob) FetchPartition(t, r int, emit func(key string, value any, bytes int64)) (int, error) {
	return j.sinks[t].drain(r, emit)
}

// PartitionRecords implements JobTransport.
func (j *memJob) PartitionRecords(t, r int) int { return j.sinks[t].buf.PartitionRecords(r) }

// ReleasePartition implements JobTransport.
func (j *memJob) ReleasePartition(t, r int) { j.sinks[t].release(r) }

// MapMeta implements JobTransport; the in-memory engine measures tasks in
// place and never stores metas.
func (j *memJob) MapMeta(t int) (TaskMeta, error) {
	return TaskMeta{}, fmt.Errorf("mapreduce: memory transport keeps no task metas")
}

// CommitOutput implements JobTransport; the local engine keeps reduce
// outputs in process instead of publishing them.
func (j *memJob) CommitOutput(t int, out []KV, meta TaskMeta) (CommitInfo, error) {
	return CommitInfo{}, fmt.Errorf("mapreduce: memory transport does not publish outputs")
}

// FetchOutput implements JobTransport.
func (j *memJob) FetchOutput(t int) ([]KV, TaskMeta, error) {
	return nil, TaskMeta{}, fmt.Errorf("mapreduce: memory transport does not publish outputs")
}

// Close implements JobTransport, reclaiming surviving sinks' spill files.
func (j *memJob) Close() {
	for i, s := range j.sinks {
		s.close()
		j.sinks[i] = nil
	}
}

// injectDeliveryFault realises a scheduled transport fault for map task t
// right after its commit: the committed partitions are delivered again
// under a newer generation, proving the reduce phase immune to duplicate
// hand-offs. FaultWorkerLoss additionally models the re-execution path
// (a dead worker's task re-run by a survivor), so it also counts a
// reassignment. Both kinds leave output byte-identical by construction —
// that is the contract the chaos schedules verify.
func injectDeliveryFault(cfg Config, counters *Counters, jt JobTransport, t int) error {
	f := cfg.decideFault(PhaseMap, t, DeliveryAttempt)
	if !isDeliveryKind(f.Kind) {
		return nil
	}
	info, err := jt.Redeliver(t)
	if err != nil {
		return fmt.Errorf("injected %s: %w", f.Kind, err)
	}
	countDeliveryFault(f, counters, info.Partitions)
	return nil
}

// countDeliveryFault records one realised transport fault's counters. The
// distributed path counts into the task-local set before snapshotting the
// meta (so every participant assembles identical counters) and performs
// the redelivery after the commit; the local path does both in
// injectDeliveryFault.
func countDeliveryFault(f Fault, counters *Counters, partitions int) {
	counters.Inc(counterInjectedPrefix+f.Kind.String(), 1)
	counters.Inc(CounterPartitionsRedelivered, int64(partitions))
	if f.Kind == FaultWorkerLoss {
		counters.Inc(CounterTasksReassigned, 1)
	}
}

// mergeTaskCounters folds one task's counter snapshot into the job
// counters, routing the engine's max-valued counters through Max so a
// distributed merge agrees with the local engine's accounting.
func mergeTaskCounters(dst *Counters, snap map[string]int64) {
	for k, v := range snap {
		switch k {
		case CounterSpillMergeWays, CounterShufflePeak:
			dst.Max(k, v)
		default:
			dst.Inc(k, v)
		}
	}
}
