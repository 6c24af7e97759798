package mapreduce

import (
	"fmt"

	"fsjoin/internal/spill"
)

// This file defines the transport seam of the engine: everything a task
// commits — a map task's partitions, a task's final output, and the meta
// that carries its measurements — sits behind the Transport interface, so
// the one job driver runs over both the in-memory hand-off and the
// filesystem shuffle (DESIGN.md §15), and assembles its Result from the
// commits alone. The default — Config.Transport left nil — is
// MemoryTransport, which keeps what a task committed by reference: each map
// task's pre-partitioned, spill-aware shuffleSink is handed to the reduce
// phase directly.

// TransportSpec identifies one job execution to a Transport. A pipeline
// opens its specs in a deterministic order, which is what lets a filesystem
// transport lay out one stage directory per job.
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

// TaskMeta travels with a committed task: the measured facts the job
// driver needs to assemble Metrics and Counters from the commits alone.
type TaskMeta struct {
	// Records and Bytes are what a reduce task fetched — its share of the
	// shuffle, and the only place the shuffle is counted.
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
	// Counters is the task-local counter snapshot.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// JobTransport is one job's commit channel: map partitions on their way
// to the reduce phase, and task outputs and per-task metadata on their way
// to the Result. The engine commits each task once, after its attempt loop
// has produced a winner.
type JobTransport interface {
	// CommitMap publishes map task t's partitioned shuffle output. The
	// transport takes ownership of the sink: in-memory it is held live
	// for the reduce phase; a serialising transport drains it into its
	// frames and closes it.
	CommitMap(t int, sink *shuffleSink, meta TaskMeta) error
	// FetchPartition returns map task t's partition r in committed order,
	// each record with its accounted size, as a source for spill.Group,
	// and reports the merge fan-in that produced it (spill accounting). A
	// partition held in memory may be handed over where it lies, valid
	// until it is released; any other is appended to dst, which the reduce
	// task shares across its fetches, and the source is what was appended.
	FetchPartition(t, r int, dst *spill.Records) (src spill.Source, ways int, err error)
	// ReleasePartition reclaims partition (t, r) once a reduce task has
	// consumed it. Transports whose partitions outlive one read treat it
	// as a no-op.
	ReleasePartition(t, r int)
	// MapMeta returns the meta committed with map task t.
	MapMeta(t int) (TaskMeta, error)
	// CommitOutput publishes task t's final output (reduce output, or map
	// output for map-only jobs). out must not change afterwards.
	CommitOutput(t int, out *spill.Records, meta TaskMeta) error
	// FetchOutput returns task t's committed output, read-only, and meta.
	FetchOutput(t int) (*spill.Records, TaskMeta, error)
	// Close releases everything the job still holds. Abort paths call it
	// with partitions unconsumed.
	Close()
}

// MemoryTransport returns the default in-process transport: what a task
// commits is held by reference — sinks live, outputs and metas as given —
// and read back directly.
func MemoryTransport() Transport { return memTransport{} }

type memTransport struct{}

// Open implements Transport.
func (memTransport) Open(spec TransportSpec) (JobTransport, error) {
	return &memJob{
		maps: make([]memCommit, spec.MapTasks),
		outs: make([]memCommit, max(spec.MapTasks, spec.ReduceTasks)),
	}, nil
}

// memJob holds one job's commits. Tasks fill their own slots, so they may
// commit concurrently.
type memJob struct {
	maps []memCommit // by map task
	outs []memCommit // by the task that committed an output
}

// memCommit is one committed task: a map task's sink or a task's output.
type memCommit struct {
	sink *shuffleSink
	out  *spill.Records
	meta TaskMeta
}

// CommitMap implements JobTransport by keeping the sink live.
func (j *memJob) CommitMap(t int, sink *shuffleSink, meta TaskMeta) error {
	j.maps[t] = memCommit{sink: sink, meta: meta}
	return nil
}

// FetchPartition implements JobTransport: a partition that never spilled
// is handed over where it lies, a spilled one merged onto dst.
func (j *memJob) FetchPartition(t, r int, dst *spill.Records) (spill.Source, int, error) {
	return j.maps[t].sink.buf.Fetch(r, dst)
}

// ReleasePartition implements JobTransport.
func (j *memJob) ReleasePartition(t, r int) { j.maps[t].sink.buf.Release(r) }

// MapMeta implements JobTransport.
func (j *memJob) MapMeta(t int) (TaskMeta, error) { return j.maps[t].meta, nil }

// CommitOutput implements JobTransport by keeping the records themselves.
func (j *memJob) CommitOutput(t int, out *spill.Records, meta TaskMeta) error {
	j.outs[t] = memCommit{out: out, meta: meta}
	return nil
}

// FetchOutput implements JobTransport.
func (j *memJob) FetchOutput(t int) (*spill.Records, TaskMeta, error) {
	return j.outs[t].out, j.outs[t].meta, nil
}

// Close implements JobTransport, reclaiming surviving sinks' spill files.
func (j *memJob) Close() {
	for _, c := range j.maps {
		c.sink.close()
	}
	j.maps, j.outs = nil, nil
}

// mergeTaskCounters folds one task's counter snapshot into the job
// counters, routing the engine's max-valued counters through Max.
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
