package mapreduce

import (
	"errors"
	"fmt"
	"time"
)

// This file is the engine's fault model: what can go wrong inside a task
// attempt, how faults are injected deterministically for chaos testing,
// and the retry/backoff/speculation policy that recovers from them. The
// execution wiring lives in pool.go (attempt loop) and job.go (the
// map/combine/reduce injection points); DESIGN.md §7 documents the model.

// Phase identifies which attempt path a fault targets. Combine faults hit
// the combine point inside the map attempt, after its body — the combiner
// itself folds at Emit — so the two fail together, as one Hadoop task;
// reduce faults hit the reduce attempt.
type Phase uint8

// The injectable phases.
const (
	PhaseMap Phase = iota
	PhaseCombine
	PhaseReduce
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseMap:
		return "map"
	case PhaseCombine:
		return "combine"
	case PhaseReduce:
		return "reduce"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// FaultKind enumerates the misbehaviours the engine can inject into a task
// attempt.
type FaultKind uint8

// The injectable fault kinds.
const (
	// FaultNone injects nothing.
	FaultNone FaultKind = iota
	// FaultPanic panics before the phase body runs — a task crash.
	FaultPanic
	// FaultEmitPanic panics after the phase body has emitted all of its
	// records — the emit-phase failure that exercises the engine's
	// no-partial-output guarantee (a retried attempt must not leak the
	// crashed attempt's emissions).
	FaultEmitPanic
	// FaultError fails the attempt with a plain error, no panic — a task
	// that reports failure cleanly (lost container, fetch failure). Inside
	// a combine step, which has no error return path, it degrades to a
	// panic.
	FaultError
	// FaultDelay makes the attempt a straggler: it sleeps, then proceeds
	// normally. Recoverable only by waiting — or by speculative
	// re-execution (FaultPolicy.SpeculativeDelay).
	FaultDelay
	// FaultRecordPanic panics when the task reaches its Fault.Record'th
	// input record (map) or key group (reduce) — a poison record. Unlike
	// the other kinds it fails on every attempt that replays the record,
	// so it is recoverable only by FaultPolicy.SkipBadRecords; injectors
	// modelling it must return the same fault for every attempt index,
	// ProbeAttempt included, or the bisection probes cannot reproduce it.
	// Realised in the map and reduce phases only (the combine point has no
	// records). Not part of SeededPlan's default mix.
	FaultRecordPanic
	// FaultWorkerLoss models a worker dying after committing a map task but
	// before its completion was acknowledged: the task is reassigned and
	// the survivor's re-execution delivers the same partitions
	// again under a newer generation. Realised at the transport commit
	// boundary (DeliveryAttempt), not inside an attempt; output must be
	// byte-identical because delivery is idempotent. Not part of
	// SeededPlan's default mix.
	FaultWorkerLoss
	// FaultRedeliver models a duplicate partition delivery without a worker
	// death — a retried hand-off whose first copy also arrived. Like
	// FaultWorkerLoss it is realised at the commit boundary and must leave
	// output byte-identical. Not part of SeededPlan's default mix.
	FaultRedeliver
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultEmitPanic:
		return "emit-panic"
	case FaultError:
		return "error"
	case FaultDelay:
		return "delay"
	case FaultRecordPanic:
		return "record-panic"
	case FaultWorkerLoss:
		return "worker-loss"
	case FaultRedeliver:
		return "redeliver"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one injected misbehaviour for one task attempt.
type Fault struct {
	// Kind selects the misbehaviour; the zero value injects nothing.
	Kind FaultKind
	// Delay is how long a FaultDelay attempt sleeps before proceeding.
	Delay time.Duration
	// Msg labels injected panics and errors. Transient faults must vary it
	// per attempt: the engine treats a retry failing with exactly the
	// previous attempt's message as a deterministic bug and stops retrying.
	// FaultRecordPanic faults must instead keep it attempt-invariant, so
	// the early stop fires and skip mode takes over.
	Msg string
	// Record is the zero-based input record (map) or sorted key group
	// (reduce) index a FaultRecordPanic fires on; an index past the task's
	// input injects nothing.
	Record int
}

// Injector schedules faults. Decide is consulted once per (phase, task,
// attempt) at the start of every attempt. Implementations must be pure
// functions of their arguments: the engine calls Decide from concurrent
// workers in nondeterministic order, and a chaos run is reproducible only
// because the schedule depends on nothing else.
type Injector interface {
	Decide(phase Phase, task, attempt int) Fault
}

// JobAwareInjector is an optional Injector extension consulted with the
// job's name, letting one injector inherited through a Pipeline target a
// specific stage — how crash/recovery tests kill an algorithm "after
// stage k" without knowing its task layout. When an injector implements
// both interfaces, DecideJob wins; the same purity contract applies.
type JobAwareInjector interface {
	DecideJob(job string, phase Phase, task, attempt int) Fault
}

// SpeculativeAttempt is the offset added to the attempt index passed to
// Decide for speculative backup copies (see FaultPolicy.SpeculativeDelay).
// Backups model re-execution on a healthy node, so seeded plans leave
// attempts at or above this offset fault-free; a custom Injector may
// target them to chaos-test speculation itself.
const SpeculativeAttempt = 1 << 16

// ProbeAttempt is the attempt index skip-mode bisection probes pass to
// Decide (see FaultPolicy.SkipBadRecords). Probes replay prefixes of a
// deterministically failing task's input outside the normal attempt loop;
// like speculative backups they sit above SpeculativeAttempt, so seeded
// chaos plans leave them fault-free, while injectors modelling a poison
// record (FaultRecordPanic, pure in phase and task) reproduce it for the
// probes to find.
const ProbeAttempt = 2 << 16

// DeliveryAttempt is the attempt index the engine passes to Decide when a
// map task's committed partitions are about to be handed to the reduce
// phase — the transport commit boundary. It is consulted once per map
// task, after the attempt loop has produced a winner, and realises only
// the transport fault kinds (FaultWorkerLoss, FaultRedeliver); seeded
// plans whose Kinds include neither leave the boundary fault-free.
const DeliveryAttempt = 3 << 16

// isDeliveryKind reports whether a kind is realised at the transport
// commit boundary rather than inside a task attempt.
func isDeliveryKind(k FaultKind) bool {
	return k == FaultWorkerLoss || k == FaultRedeliver
}

// BackoffFunc maps a retry number (1 = first retry) to the sleep taken
// before that retry starts.
type BackoffFunc func(retry int) time.Duration

// ExponentialBackoff returns base << (retry-1), capped at max — the
// standard doubling schedule. A non-positive base disables backoff.
func ExponentialBackoff(base, max time.Duration) BackoffFunc {
	return func(retry int) time.Duration {
		if base <= 0 || retry < 1 {
			return 0
		}
		d := base
		for i := 1; i < retry && d < max; i++ {
			d <<= 1
		}
		if max > 0 && d > max {
			d = max
		}
		return d
	}
}

// FaultPolicy bundles a job's fault-tolerance and fault-injection knobs so
// pipelines and algorithm options can carry them as one value. The zero
// value keeps the engine's default behaviour: four attempts per task, no
// backoff, no speculation, no injection.
type FaultPolicy struct {
	// MaxAttempts is how many times a failing (panicking) task is tried
	// before the job aborts, mirroring Hadoop's task-level fault
	// tolerance; 0 means 4, Hadoop's default.
	MaxAttempts int
	// Backoff, when non-nil, sleeps between retry attempts.
	Backoff BackoffFunc
	// SpeculativeDelay, when positive, launches a backup copy of any
	// attempt still running after this duration (straggler mitigation,
	// Hadoop's speculative execution). The first copy to finish decides
	// the attempt; the loser is abandoned. Requires the same concurrency
	// safety from user code as Config.Parallelism > 1.
	SpeculativeDelay time.Duration
	// Injector, when non-nil, injects scheduled faults into every task
	// attempt. Intended for tests; production jobs leave it nil.
	Injector Injector
	// SkipBadRecords enables Hadoop-style skip mode: when a task exhausts
	// its attempts on the same deterministic panic, the engine bisects to
	// the poison input record (map) or key group (reduce), quarantines it
	// through the CounterRecordsSkipped counter and the Quarantine sink,
	// and re-runs the task without it. Failures the task body alone cannot
	// reproduce (transient faults, Setup/Cleanup or combiner crashes)
	// are not skippable and abort as before.
	SkipBadRecords bool
	// MaxSkippedRecords bounds how many records one job may quarantine
	// before skipping itself is treated as the bug and the job aborts;
	// 0 means DefaultMaxSkippedRecords.
	MaxSkippedRecords int
	// Quarantine, when non-nil, receives every skipped record. The engine
	// serialises calls, so the sink needs no locking of its own.
	Quarantine func(QuarantinedRecord)
}

// DefaultMaxSkippedRecords is the skip-mode quarantine budget when
// FaultPolicy.MaxSkippedRecords is zero: generous enough for scattered
// poison records, small enough that systematic failure still aborts.
const DefaultMaxSkippedRecords = 16

// maxSkippedRecords resolves the job-wide quarantine budget.
func (f FaultPolicy) maxSkippedRecords() int64 {
	if f.MaxSkippedRecords > 0 {
		return int64(f.MaxSkippedRecords)
	}
	return DefaultMaxSkippedRecords
}

// QuarantinedRecord identifies one input record (map) or key group
// (reduce) that skip mode removed from a job, and the deterministic
// failure it caused.
type QuarantinedRecord struct {
	// Job is the job the record poisoned.
	Job string
	// Phase is PhaseMap for an input record, PhaseReduce for a key group.
	Phase Phase
	// Task is the task index within the phase.
	Task int
	// Key and Value are the poison pair; Value is nil for a reduce-side
	// key group (the group's values are not retained).
	Key   string
	Value any
	// Err is the failure message the record deterministically produced.
	Err string
}

// Counter names under which the engine surfaces every fault-handling
// decision. The "mapreduce.task." and "mapreduce.fault." namespaces are
// bookkeeping: they vary with the fault schedule (and, for speculation,
// with wall-clock timing), so equivalence checks compare counters modulo
// these prefixes — see chaos.DeterministicCounters.
const (
	// CounterRetries counts re-attempts after a failed task attempt.
	CounterRetries = "mapreduce.task.retries"
	// CounterSpeculative counts speculative backup launches.
	CounterSpeculative = "mapreduce.task.speculative"
	// CounterBackoffs counts backoff sleeps taken before retries.
	CounterBackoffs = "mapreduce.task.backoffs"
	// counterInjectedPrefix prefixes one counter per injected fault kind,
	// e.g. "mapreduce.fault.injected.panic".
	counterInjectedPrefix = "mapreduce.fault.injected."
	// CounterRecordsSkipped counts records and key groups quarantined by
	// skip mode (FaultPolicy.SkipBadRecords). Deliberately outside the
	// bookkeeping namespaces: a skipped record changes job output, so
	// equivalence checks must see it.
	CounterRecordsSkipped = "fault.records.skipped"
)

// decideFault is the nil-safe injector lookup for one attempt.
func (c Config) decideFault(phase Phase, task, attempt int) Fault {
	if c.Fault.Injector == nil {
		return Fault{}
	}
	if ja, ok := c.Fault.Injector.(JobAwareInjector); ok {
		return ja.DecideJob(c.Name, phase, task, attempt)
	}
	return c.Fault.Injector.Decide(phase, task, attempt)
}

// injectErr realises FaultError at the top of an attempt, outside the
// panic guard: the attempt fails with a plain error. All other kinds are
// handled by injectEnter/injectExit inside the guard.
func (f Fault) injectErr(counters *Counters) error {
	if f.Kind != FaultError {
		return nil
	}
	counters.Inc(counterInjectedPrefix+f.Kind.String(), 1)
	return errors.New(f.Msg)
}

// injectEnter realises a fault at the start of a phase body, inside the
// attempt's guard: FaultPanic panics, FaultDelay sleeps and lets the body
// proceed. FaultError reaches here only from phases without an error
// return path (combine), where it degrades to a panic.
func (f Fault) injectEnter(counters *Counters) {
	switch f.Kind {
	case FaultPanic, FaultError:
		counters.Inc(counterInjectedPrefix+f.Kind.String(), 1)
		panic(f.Msg)
	case FaultDelay:
		counters.Inc(counterInjectedPrefix+f.Kind.String(), 1)
		time.Sleep(f.Delay)
	}
}

// injectRecord realises a FaultRecordPanic at a task body's unit n;
// counters is nil in skip-mode probes, which inject without counting.
func (f Fault) injectRecord(n int, counters *Counters) {
	if f.Kind == FaultRecordPanic && n == f.Record {
		if counters != nil {
			counters.Inc(counterInjectedPrefix+f.Kind.String(), 1)
		}
		panic(f.Msg)
	}
}

// injectExit realises FaultEmitPanic after the phase body has emitted.
func (f Fault) injectExit(counters *Counters) {
	if f.Kind != FaultEmitPanic {
		return
	}
	counters.Inc(counterInjectedPrefix+f.Kind.String(), 1)
	panic(f.Msg)
}

// PlanConfig parameterises a seeded fault schedule. The zero value of
// every field except Seed selects a sensible default.
type PlanConfig struct {
	// Seed is the schedule's only source of randomness: two plans built
	// from equal configs make identical decisions, regardless of task
	// execution order or parallelism.
	Seed int64
	// TargetRate is the probability that a given (phase, task) pair is
	// targeted at all (default 0.3).
	TargetRate float64
	// MaxFailures caps how many consecutive attempts of a targeted task
	// fail before it succeeds (default 2). Keep it below the job's
	// MaxAttempts, or targeted tasks abort the job.
	MaxFailures int
	// MaxDelay bounds straggler sleeps (default 2ms; chaos suites keep
	// this small so dozens of schedules stay fast).
	MaxDelay time.Duration
	// Kinds is the fault mix drawn from (default: FaultPanic,
	// FaultEmitPanic, FaultError and FaultDelay). The transport kinds
	// (FaultWorkerLoss, FaultRedeliver) may be mixed in; they are drawn
	// from an independent per-task decision at the commit boundary
	// (DeliveryAttempt) instead of the attempt loop.
	Kinds []FaultKind
}

// withDefaults normalises a plan config.
func (c PlanConfig) withDefaults() PlanConfig {
	if c.TargetRate <= 0 {
		c.TargetRate = 0.3
	}
	if c.TargetRate > 1 {
		c.TargetRate = 1
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 2
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []FaultKind{FaultPanic, FaultEmitPanic, FaultError, FaultDelay}
	}
	return c
}

// SeededPlan is a deterministic, order-independent Injector: every
// decision is a pure hash of (seed, phase, task), so a schedule is
// re-runnable from its PlanConfig alone. A targeted task draws one fault
// kind; crash kinds fail the task's first 1..MaxFailures attempts with
// attempt-varying messages (transient faults present different symptoms
// each time, so the deterministic-failure early stop never trips), and
// delay kinds make the first attempt a straggler. Speculative backup
// attempts run clean, modelling re-execution on a healthy node.
type SeededPlan struct {
	cfg PlanConfig
	// attemptKinds and deliveryKinds split cfg.Kinds by injection site:
	// attempt-loop faults versus transport commit-boundary faults.
	attemptKinds  []FaultKind
	deliveryKinds []FaultKind
}

// NewSeededPlan builds the schedule for one seed.
func NewSeededPlan(cfg PlanConfig) *SeededPlan {
	p := &SeededPlan{cfg: cfg.withDefaults()}
	for _, k := range p.cfg.Kinds {
		if isDeliveryKind(k) {
			p.deliveryKinds = append(p.deliveryKinds, k)
		} else {
			p.attemptKinds = append(p.attemptKinds, k)
		}
	}
	return p
}

// Decide implements Injector.
func (p *SeededPlan) Decide(phase Phase, task, attempt int) Fault {
	if attempt >= DeliveryAttempt {
		return p.decideDelivery(phase, task)
	}
	if attempt >= SpeculativeAttempt || len(p.attemptKinds) == 0 {
		return Fault{}
	}
	h := mix64(uint64(p.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(phase)*0xbf58476d1ce4e5b9 + uint64(task)*0x94d049bb133111eb + 1)
	if float64(h>>11)/float64(1<<53) >= p.cfg.TargetRate {
		return Fault{}
	}
	h2 := mix64(h)
	kind := p.attemptKinds[int(h2%uint64(len(p.attemptKinds)))]
	switch kind {
	case FaultDelay:
		if attempt > 0 {
			return Fault{}
		}
		delay := time.Duration(mix64(h2)%uint64(p.cfg.MaxDelay)) + 1
		return Fault{Kind: FaultDelay, Delay: delay}
	default:
		failures := 1 + int(mix64(h2)%uint64(p.cfg.MaxFailures))
		if attempt >= failures {
			return Fault{}
		}
		return Fault{Kind: kind, Msg: fmt.Sprintf(
			"injected %s fault: seed=%d phase=%s task=%d attempt=%d",
			kind, p.cfg.Seed, phase, task, attempt)}
	}
}

// decideDelivery is the commit-boundary decision: a pure hash of (seed,
// phase, task) on an independent stream from the attempt-loop decisions,
// so mixing transport kinds into a plan does not perturb which tasks the
// attempt faults target. Only map tasks have a partition hand-off, so
// other phases are never targeted.
func (p *SeededPlan) decideDelivery(phase Phase, task int) Fault {
	if phase != PhaseMap || len(p.deliveryKinds) == 0 {
		return Fault{}
	}
	h := mix64(uint64(p.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(phase)*0xbf58476d1ce4e5b9 + uint64(task)*0x94d049bb133111eb + 0x2545f4914f6cdd1d)
	if float64(h>>11)/float64(1<<53) >= p.cfg.TargetRate {
		return Fault{}
	}
	h2 := mix64(h)
	return Fault{Kind: p.deliveryKinds[int(h2%uint64(len(p.deliveryKinds)))]}
}

// mix64 is the SplitMix64 finalizer — a cheap, well-distributed bijection
// used to derive independent decisions from one seed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
