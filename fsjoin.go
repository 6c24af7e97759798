// Package fsjoin is a distributed set-similarity join library, a faithful
// reproduction of "Fast and Scalable Distributed Set Similarity Joins for
// Big Data Analytics" (Rong et al., ICDE 2017).
//
// The library finds all pairs of records from one collection (self-join) or
// two collections (R-S join) whose set similarity — Jaccard, Dice or Cosine
// — reaches a threshold θ. The primary algorithm is FS-Join: a three-phase,
// duplicate-free MapReduce pipeline built on vertical partitioning. The
// three baselines the paper compares against (RIDPairsPPJoin, V-Smart-Join,
// MassJoin) are included and share the same execution substrate, an
// in-process MapReduce engine with a cluster cost model.
//
// Quick start:
//
//	docs := [][]string{
//		{"set", "similarity", "join"},
//		{"set", "similarity", "joins"},
//		{"completely", "different", "tokens"},
//	}
//	res, err := fsjoin.SelfJoinSets(docs, fsjoin.Options{Threshold: 0.5})
//	// res.Pairs → [(0,1)]
package fsjoin

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/partition"
	"fsjoin/internal/similarity"
)

// Similarity selects the set-similarity function.
type Similarity int

// Supported similarity functions.
const (
	// Jaccard is |s∩t| / |s∪t| — the paper's primary function.
	Jaccard Similarity = iota
	// Dice is 2|s∩t| / (|s|+|t|).
	Dice
	// Cosine is |s∩t| / √(|s|·|t|).
	Cosine
)

func (s Similarity) internal() (similarity.Func, error) {
	switch s {
	case Jaccard:
		return similarity.Jaccard, nil
	case Dice:
		return similarity.Dice, nil
	case Cosine:
		return similarity.Cosine, nil
	default:
		return 0, fmt.Errorf("fsjoin: unknown similarity function %d", int(s))
	}
}

// Algorithm selects the join implementation.
type Algorithm int

// Supported algorithms. FSJoin is the paper's contribution and the default;
// the others are the evaluated baselines.
const (
	// FSJoin is the full algorithm: vertical + horizontal partitioning.
	FSJoin Algorithm = iota
	// FSJoinV disables horizontal partitioning (the paper's FS-Join-V).
	FSJoinV
	// RIDPairsPPJoin is the prefix-signature baseline of Vernica et al.
	RIDPairsPPJoin
	// VSmartJoin is the Online-Aggregation variant of Metwally et al.
	VSmartJoin
	// MassJoinMerge is Deng et al.'s MassJoin, Merge variant.
	MassJoinMerge
	// MassJoinMergeLight is MassJoin with the token-grouping light filter.
	MassJoinMergeLight
	// ApproxLSHJoin is the approximate MinHash/LSH join — the paper's
	// stated future-work extension. Results have perfect precision; recall
	// follows the LSH S-curve (near 1 well above the threshold). Jaccard
	// only.
	ApproxLSHJoin
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case FSJoin:
		return "fs-join"
	case FSJoinV:
		return "fs-join-v"
	case RIDPairsPPJoin:
		return "ridpairs-ppjoin"
	case VSmartJoin:
		return "v-smart-join"
	case MassJoinMerge:
		return "massjoin-merge"
	case MassJoinMergeLight:
		return "massjoin-merge+light"
	case ApproxLSHJoin:
		return "approx-lsh"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// PivotSelection selects how FS-Join chooses vertical pivots (Section IV).
type PivotSelection int

// Supported pivot-selection methods.
const (
	// EvenTF splits total term frequency evenly — the paper's choice,
	// with a load-balancing guarantee.
	EvenTF PivotSelection = iota
	// EvenInterval splits the token domain into equal-width rank ranges.
	EvenInterval
	// RandomPivots picks pivots uniformly at random.
	RandomPivots
)

func (p PivotSelection) internal() (partition.PivotMethod, error) {
	switch p {
	case EvenTF:
		return partition.EvenTF, nil
	case EvenInterval:
		return partition.EvenInterval, nil
	case RandomPivots:
		return partition.Random, nil
	default:
		return 0, fmt.Errorf("fsjoin: unknown pivot selection %d", int(p))
	}
}

// JoinMethod selects FS-Join's within-fragment join kernel (Section V-A).
type JoinMethod int

// Supported join kernels.
const (
	// PrefixJoin indexes lossless segment prefixes — the paper's choice.
	PrefixJoin JoinMethod = iota
	// IndexJoin builds inverted lists over all segment tokens.
	IndexJoin
	// LoopJoin compares all qualifying segment pairs.
	LoopJoin
)

func (j JoinMethod) internal() (fragjoin.Method, error) {
	switch j {
	case PrefixJoin:
		return fragjoin.Prefix, nil
	case IndexJoin:
		return fragjoin.Index, nil
	case LoopJoin:
		return fragjoin.Loop, nil
	default:
		return 0, fmt.Errorf("fsjoin: unknown join method %d", int(j))
	}
}

// Options configures a join.
type Options struct {
	// Threshold is the similarity threshold θ in (0, 1]. Required.
	Threshold float64
	// Function is the similarity function (default Jaccard).
	Function Similarity
	// Algorithm is the join implementation (default FSJoin).
	Algorithm Algorithm
	// VerticalPartitions is FS-Join's fragment count (default 3 × nodes).
	VerticalPartitions int
	// HorizontalPivots is FS-Join's length-pivot count t, yielding 2t+1
	// horizontal partitions (default 0 for FSJoinV; 10 for FSJoin).
	HorizontalPivots int
	// PivotSelection is FS-Join's vertical pivot strategy (default
	// EvenTF).
	PivotSelection PivotSelection
	// JoinMethod is FS-Join's fragment join kernel (default PrefixJoin).
	JoinMethod JoinMethod
	// Nodes is the simulated cluster size (default 10, the paper's).
	Nodes int
	// Seed drives RandomPivots.
	Seed int64
	// WorkBudget caps intermediate-record generation for the V-Smart-Join
	// and MassJoin baselines (they blow up on large inputs, as the paper
	// reports); 0 means unlimited.
	WorkBudget int64
	// Context, when non-nil, cancels the join at the next task boundary
	// with the context's error.
	Context context.Context
	// LocalParallelism is the number of simulated tasks run concurrently on
	// the local machine, for every algorithm. 0 (the default) uses one
	// worker per CPU core; 1 forces sequential execution, which gives the
	// most faithful simulated-time measurements; larger values cap the
	// worker pool. Results, counters and shuffle metrics are identical at
	// every setting — only wall-clock time changes.
	LocalParallelism int
	// Fault configures task-level fault tolerance — the retry budget and
	// skip mode — for every algorithm. The zero value keeps Hadoop-style
	// defaults: four attempts per task, no record skipped.
	Fault FaultOptions
	// MemoryBudget caps each simulated map task's in-memory shuffle buffer,
	// in bytes. Each time a map task's records exceed it, the task appends
	// them to its one spill file, and reduce tasks read them back from
	// there, so joins over data larger than RAM complete instead of
	// exhausting memory. Results are
	// byte-identical at any budget; only Stats.SpillRuns/SpillBytes and
	// wall-clock time change. 0 (the default) defers to the
	// FSJOIN_MEMORY_BUDGET environment variable (unbounded when unset);
	// a negative value forces unbounded buffering.
	MemoryBudget int64
	// SpillDir is the directory of spill files; "" is the OS temp dir
	// (os.TempDir, which honours TMPDIR). Each map task that spills
	// creates one fsjoin-spill-* file there, removed when the stage's
	// reduce tasks have read it.
	SpillDir string
	// CheckpointDir, when non-empty, makes the join durable: after every
	// MapReduce stage completes, its output, counters and metrics are
	// atomically persisted there, and a later run with the same options
	// and input replays finished stages from disk byte-identically instead
	// of re-executing them — crash/restart recovery for long pipelines.
	// Stage checkpoints are keyed by a fingerprint over the options and
	// the stage's full input content, so stale or corrupt checkpoints
	// (changed data, changed options, damaged files) are detected and
	// recomputed, never trusted. The directory is created if missing;
	// Stats.CheckpointHits/CheckpointMisses report the replay activity.
	// Directories must not be reused across library versions.
	CheckpointDir string
}

// FaultOptions is the public face of the engine's fault model (DESIGN.md
// §7): how failing tasks are retried, and poison records skipped.
// Under any fault a join either returns output identical to the
// fault-free run or an error; results are never silently perturbed, which
// the package's tests check under seeded fault schedules.
type FaultOptions struct {
	// MaxAttempts is the per-task attempt budget; 0 means 4, Hadoop's
	// default.
	MaxAttempts int
	// SkipBadRecords enables Hadoop-style skip mode: when a task exhausts
	// its attempts on the same deterministic panic, the engine bisects to
	// the poison input record, quarantines it (Stats.RecordsSkipped, the
	// OnQuarantine sink) and re-runs the task without it, so one bad
	// record does not abort a million-record join. A skipped record's
	// contribution is missing from the result — pairs involving it may be
	// absent — which is the point: a degraded answer instead of none.
	SkipBadRecords bool
	// MaxSkippedRecords bounds quarantined records per job before the join
	// aborts anyway (systematic failure is a bug, not a poison record);
	// 0 means 16.
	MaxSkippedRecords int
	// OnQuarantine, when non-nil, receives every quarantined record.
	// Calls are serialised by the engine.
	OnQuarantine func(QuarantinedRecord)

	// injector lets in-package tests inject faults into every task
	// attempt — seeded chaos schedules (mapreduce.NewSeededPlan) or precise
	// faults such as poison records — without widening the public API.
	injector mapreduce.Injector
}

// QuarantinedRecord identifies one input record (map side) or key group
// (reduce side) that skip mode removed from a job.
type QuarantinedRecord struct {
	// Job names the MapReduce stage the record poisoned (e.g.
	// "filtering").
	Job string
	// Phase is "map" for an input record, "reduce" for a key group.
	Phase string
	// Task is the task index within the phase.
	Task int
	// Key is the record's engine key — the algorithms use big-endian
	// binary record/token ids, so treat it as opaque bytes.
	Key string
	// Err is the deterministic failure the record produced.
	Err string
}

// faultPolicy lowers the public knobs onto the engine policy.
func (o Options) faultPolicy() mapreduce.FaultPolicy {
	f := o.Fault
	fp := mapreduce.FaultPolicy{
		MaxAttempts:       f.MaxAttempts,
		Injector:          f.injector,
		SkipBadRecords:    f.SkipBadRecords,
		MaxSkippedRecords: f.MaxSkippedRecords,
	}
	if sink := f.OnQuarantine; sink != nil {
		fp.Quarantine = func(r mapreduce.QuarantinedRecord) {
			sink(QuarantinedRecord{
				Job: r.Job, Phase: r.Phase.String(), Task: r.Task,
				Key: r.Key, Err: r.Err,
			})
		}
	}
	return fp
}

// env lowers the public execution knobs onto the engine environment every
// algorithm forwards to its pipeline — the one place a new engine-wide
// setting is wired.
func (o Options) env() mapreduce.Env {
	return mapreduce.Env{
		Context:        o.Context,
		Fault:          o.faultPolicy(),
		SpillDir:       o.SpillDir,
		CheckpointDir:  o.CheckpointDir,
		CheckpointSalt: o.checkpointSalt(),
	}
}

// checkpointSalt folds every option that changes a stage's semantics into
// the checkpoint fingerprints, so a checkpoint directory reused with
// different options recomputes instead of replaying mismatched state.
// Execution-only knobs (parallelism, memory budget, fault tolerance) are
// deliberately excluded: output is byte-identical across them, so their
// checkpoints are interchangeable.
func (o Options) checkpointSalt() string {
	if o.CheckpointDir == "" {
		return ""
	}
	return fmt.Sprintf("fsjoin/v1|fn=%d|algo=%d|theta=%s|vp=%d|hp=%d|pivot=%d|join=%d|nodes=%d|seed=%d|work=%d",
		o.Function, o.Algorithm, strconv.FormatFloat(o.Threshold, 'g', -1, 64),
		o.VerticalPartitions, o.HorizontalPivots, o.PivotSelection, o.JoinMethod,
		o.Nodes, o.Seed, o.WorkBudget)
}

func (o Options) cluster() *mapreduce.Cluster {
	cl := mapreduce.DefaultCluster()
	if o.Nodes > 0 {
		cl.Nodes = o.Nodes
	}
	return cl
}

// localParallelism resolves Options.LocalParallelism for the engine: the
// zero value selects one worker per core (mapreduce.AutoParallelism).
func (o Options) localParallelism() int {
	if o.LocalParallelism == 0 {
		return mapreduce.AutoParallelism
	}
	return o.LocalParallelism
}

// Pair is one join result.
type Pair struct {
	// A and B are record indices into the input collection(s): A < B for
	// self-joins; A indexes R and B indexes S for R-S joins.
	A, B int
	// Common is the number of shared tokens.
	Common int
	// Similarity is the exact similarity score.
	Similarity float64
}

// Stats summarises the simulated distributed execution.
type Stats struct {
	// SimulatedTime is the modelled end-to-end cluster makespan.
	SimulatedTime time.Duration
	// ShuffleRecords and ShuffleBytes total the data moved between map and
	// reduce tasks across all jobs.
	ShuffleRecords int64
	ShuffleBytes   int64
	// LoadImbalance is the worst per-reducer max/mean shuffle-byte ratio
	// across jobs (1.0 = perfectly balanced).
	LoadImbalance float64
	// Candidates is the number of candidate-pair records generated before
	// verification.
	Candidates int64
	// BitmapBuilt, BitmapRejected and BitmapPassed report the bitmap
	// signature filter's activity (DESIGN.md §11): signatures built,
	// joinable candidate pairs rejected by the popcount bound before exact
	// work, and joinable pairs that survived it. A pair that can never be
	// emitted (same side of an R-S join, same side of a boundary partition)
	// is not screened and not counted, in any FS-Join kernel. All zero when
	// the filter is off.
	BitmapBuilt    int64
	BitmapRejected int64
	BitmapPassed   int64
	// VerifiedCandidates counts candidate pairs that reached exact
	// verification in the algorithm's final stage, for every algorithm:
	// aggregated pairs thresholded by FS-Join and VSmartJoin, pairs
	// intersected by RIDPairsPPJoin (per prefix group, before dedup),
	// MassJoin and ApproxLSHJoin. It is the quantity the bitmap filter cuts
	// for RIDPairsPPJoin (FS-Join's verification input is already exact and
	// unchanged by the filter); in an R-S join it equals RSCandidates.
	VerifiedCandidates int64
	// SpillRuns and SpillBytes total the spills (and their accounted
	// bytes) the out-of-core shuffle wrote under Options.MemoryBudget;
	// both are zero when no budget is active or nothing spilled.
	SpillRuns  int64
	SpillBytes int64
	// ShufflePeakBytes is the largest in-memory shuffle buffer any map
	// task held, recorded only under an active memory budget.
	ShufflePeakBytes int64
	// RecordsSkipped counts input records and key groups quarantined under
	// Fault.SkipBadRecords across all stages; always zero when skip mode
	// is off.
	RecordsSkipped int64
	// CheckpointHits and CheckpointMisses count pipeline stages replayed
	// from, respectively executed and persisted to, Options.CheckpointDir;
	// both are zero when checkpointing is off.
	CheckpointHits   int64
	CheckpointMisses int64
	// RSCandidates and RSPairs report R-S join activity at the final
	// verifying stage (the rs.pairs.* counters): cross-relation pairs it
	// examined and pairs that passed the threshold. For RIDPairsPPJoin both
	// count per prefix group, before the dedup stage, so RSPairs may exceed
	// len(Result.Pairs) there. Always zero for self-joins.
	RSCandidates int64
	RSPairs      int64
	// QueueWait is how long the job waited for admission when run through
	// a Server (zero for direct Join/SelfJoin calls, or when admitted
	// immediately).
	QueueWait time.Duration
	// MemoryLease is the memory, in bytes, the job leased from its
	// Server's global pool; zero for direct calls.
	MemoryLease int64
}

// Result is a completed join.
type Result struct {
	// Pairs holds all similar pairs, sorted by (A, B).
	Pairs []Pair
	// Stats summarises the simulated distributed execution.
	Stats Stats
}
