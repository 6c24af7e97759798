package mapreduce

import (
	"errors"
	"fmt"
	"time"
)

// This file is the engine's fault model: what can go wrong inside a task
// attempt, how faults are injected deterministically for chaos testing,
// and the retry and skip policy that recovers from them. The
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
	// normally. Nothing recovers it but waiting; chaos runs use it to
	// perturb task timing.
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

// Injector schedules faults. Decide is consulted once per (job, phase,
// task, attempt) at the start of every attempt. The job name lets one
// injector inherited through a Pipeline target a specific stage — how
// crash/recovery tests kill an algorithm "after stage k" without knowing
// its task layout; most injectors ignore it. Implementations must be pure
// functions of their arguments: the engine calls Decide from concurrent
// workers in nondeterministic order, and a chaos run is reproducible only
// because the schedule depends on nothing else.
type Injector interface {
	Decide(job string, phase Phase, task, attempt int) Fault
}

// ProbeAttempt is the attempt index skip-mode bisection probes pass to
// Decide (see FaultPolicy.SkipBadRecords). Probes replay prefixes of a
// deterministically failing task's input outside the normal attempt loop;
// seeded chaos plans leave attempts at or above it fault-free, while
// injectors modelling a poison record (FaultRecordPanic, pure in phase and
// task) reproduce it for the probes to find.
const ProbeAttempt = 1 << 16

// FaultPolicy bundles a job's fault-tolerance and fault-injection knobs so
// pipelines and algorithm options can carry them as one value. The zero
// value keeps the engine's default behaviour: four attempts per task, no
// injection. Whatever the policy, the attempts of one task run one at a
// time, so at Config.Parallelism 1 one goroutine runs all user code.
type FaultPolicy struct {
	// MaxAttempts is how many times a failing (panicking) task is tried
	// before the job aborts, mirroring Hadoop's task-level fault
	// tolerance; 0 means 4, Hadoop's default. A retry starts as soon as
	// the failed attempt has been discarded.
	MaxAttempts int
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
// bookkeeping: they vary with the fault schedule, so equivalence checks
// compare counters modulo these prefixes — see chaos.DeterministicCounters.
const (
	// CounterRetries counts re-attempts after a failed task attempt.
	CounterRetries = "mapreduce.task.retries"
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
	return c.Fault.Injector.Decide(c.Name, phase, task, attempt)
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
	// FaultEmitPanic, FaultError and FaultDelay).
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
// delay kinds make the first attempt a straggler. Skip-mode probes
// (ProbeAttempt) run clean.
type SeededPlan struct {
	cfg PlanConfig
}

// NewSeededPlan builds the schedule for one seed.
func NewSeededPlan(cfg PlanConfig) *SeededPlan {
	return &SeededPlan{cfg: cfg.withDefaults()}
}

// Decide implements Injector; the plan targets every job alike.
func (p *SeededPlan) Decide(_ string, phase Phase, task, attempt int) Fault {
	if attempt >= ProbeAttempt {
		return Fault{}
	}
	h := mix64(uint64(p.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(phase)*0xbf58476d1ce4e5b9 + uint64(task)*0x94d049bb133111eb + 1)
	if float64(h>>11)/float64(1<<53) >= p.cfg.TargetRate {
		return Fault{}
	}
	h2 := mix64(h)
	kind := p.cfg.Kinds[int(h2%uint64(len(p.cfg.Kinds)))]
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
