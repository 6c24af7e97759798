package mapreduce

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"fsjoin/internal/spill"
)

// Mapper consumes one input pair and emits zero or more intermediate pairs
// through the context.
type Mapper interface {
	Map(ctx *Context, kv KV)
}

// Reducer consumes one key group and emits zero or more output pairs.
type Reducer interface {
	Reduce(ctx *Context, key string, values []any)
}

// Setupper is an optional lifecycle hook run once per task before records,
// mirroring Hadoop's setup(). The paper's Algorithm 1 loads the global
// ordering and selects pivots in setup.
type Setupper interface {
	Setup(ctx *Context)
}

// Cleanupper is an optional lifecycle hook run once per task after records.
type Cleanupper interface {
	Cleanup(ctx *Context)
}

// MapFunc adapts a function to Mapper.
type MapFunc func(ctx *Context, kv KV)

// Map implements Mapper.
func (f MapFunc) Map(ctx *Context, kv KV) { f(ctx, kv) }

// ReduceFunc adapts a function to Reducer.
type ReduceFunc func(ctx *Context, key string, values []any)

// Reduce implements Reducer.
func (f ReduceFunc) Reduce(ctx *Context, key string, values []any) { f(ctx, key, values) }

// Folder is an associative fold over one key's values (sums, counts): the
// only shape of map-side aggregation the engine runs. A Config.Combiner
// folds each emission into its key's accumulator slot as the mapper emits
// it, so there is no combine pass. Fold must return the merged value; it
// may mutate and return acc. It must be merge-capable — folding two
// accumulators equals folding their constituent values — because a map
// task that spilled re-folds keys split across its spills.
type Folder interface {
	Fold(acc, v any) any
}

// TypedFolder is the unboxed form a Folder over values of one pointer-free
// type T may offer besides Fold. The shuffle keeps such values in a []T
// (spill.Register) and, given the method, adds a key's values in
// place, map side and reduce side, where Fold would box the accumulator
// and both operands of every addition. FoldTyped must compute what Fold
// computes and leave the accumulator's accounted size as it was. The
// engine finds the method by its name and signature; a fold that keeps its
// first value for every T (FirstValue) says so with a KeepsFirst() method
// instead.
type TypedFolder[T any] interface {
	Folder
	FoldTyped(acc *T, v T)
}

// FoldingReducer is the reduce-side fast path of the same fold: when the
// job's reducer implements it, the shuffle folds each key's values as they
// arrive instead of building per-key value lists, and the reduce phase
// calls FinishFold once per key with the folded accumulator. Reduce is
// never called on such a job but must behave equivalently (it documents
// the semantics and serves any generic caller).
type FoldingReducer interface {
	Reducer
	Folder
	// FinishFold emits the output for one key from its folded accumulator.
	FinishFold(ctx *Context, key string, acc any)
}

// GroupFinisher is what a FoldingReducer may offer besides FinishFold: the
// same output for group i of g, read from the group itself. The reduce
// phase then calls FinishGroup instead of FinishFold, and builds no key
// string and boxes no accumulator for it: g.Abbrev(i) holds the key
// whole, and spill.GroupAcc the accumulator of a typed column unboxed.
// FinishGroup may call FinishFold for a group it has no faster way for. g
// is shared by every attempt of the reduce task and must only be read.
type GroupFinisher interface {
	FinishGroup(ctx *Context, g *spill.Groups, i int)
}

// IdentityMapper forwards its input unchanged.
var IdentityMapper Mapper = MapFunc(func(ctx *Context, kv KV) { ctx.Emit(kv.Key, kv.Value) })

// FirstValue is a dedup reducer: each key is emitted once with its first
// value. It implements the folding fast path.
type FirstValue struct{}

// Reduce implements Reducer.
func (FirstValue) Reduce(ctx *Context, key string, values []any) { ctx.Emit(key, values[0]) }

// Fold implements Folder by keeping the first value.
func (FirstValue) Fold(acc, v any) any { return acc }

// KeepsFirst is the fold unboxed, for values of any type: there is nothing
// to do.
func (FirstValue) KeepsFirst() {}

// FinishFold implements FoldingReducer.
func (FirstValue) FinishFold(ctx *Context, key string, acc any) { ctx.Emit(key, acc) }

// Config describes one MapReduce job.
type Config struct {
	// Name labels the job in metrics output.
	Name string
	// MapTasks is the number of map tasks; 0 means one per cluster slot.
	MapTasks int
	// ReduceTasks is the number of reduce tasks; 0 means 3 × nodes, the
	// paper's setting. Ignored for map-only jobs.
	ReduceTasks int
	// Partitioner routes keys to reduce tasks; nil means FNV-1a hashing
	// (DefaultPartitioner). It is handed the key's bytes read big-endian,
	// zero-padded to eight: PairKey(a, b) as a<<32 | b, U32Key(x) as x<<32.
	Partitioner func(key uint64, reducers int) int
	// Combiner, when non-nil, folds each map task's emissions per key as
	// they are emitted, to shrink shuffle volume (map-side aggregation).
	// Only a job with a reduce phase may set it: like Hadoop, the engine
	// runs no combiner on a map-only job, and Run rejects one.
	Combiner Folder
	// Cluster is the cost model; nil means DefaultCluster().
	Cluster *Cluster
	// Context, when non-nil, is checked at task boundaries: a cancelled
	// context aborts the job with the context's error. Long joins remain
	// cancellable without cooperative checks inside user map/reduce code.
	Context context.Context
	// Fault bundles task retries, skip mode and (for tests) scheduled
	// fault injection; the zero value keeps the engine's default fault
	// tolerance. See FaultPolicy.
	Fault FaultPolicy
	// Parallelism is the number of tasks executed concurrently on the
	// local machine; 0 or 1 means sequential (the default, which also
	// gives the most accurate per-task CPU measurements for the cost
	// model), and a negative value (AutoParallelism) means one worker per
	// core. At 0 or 1 one goroutine runs all user code, retries and skip
	// mode included. Values other than 0 and 1 require the mapper,
	// combiner and reducer to be safe for concurrent use (the Context emit
	// surface is always per-task). Output, counters and shuffle metrics
	// are identical at every parallelism level.
	Parallelism int
	// MemoryBudgetBytes caps the intermediate bytes one map task buffers
	// in memory; each time it is exceeded the task appends what it holds,
	// in emission order, to its one spill file (out-of-core shuffle,
	// DESIGN.md §8). 0 defers to the FSJOIN_MEMORY_BUDGET environment
	// variable (unbounded when unset); negative forces unbounded. Output
	// is byte-identical at any budget.
	MemoryBudgetBytes int64
	// SpillDir is the directory of the map tasks' spill files, one
	// fsjoin-spill-* file per map task that spills; "" is the OS temp dir
	// (os.TempDir, which honours TMPDIR).
	SpillDir string
	// CheckpointDir, when non-empty and the job runs as a pipeline stage,
	// persists the stage's result there after it completes and replays it
	// on a fingerprint-matched re-run (crash/restart recovery, DESIGN.md
	// §9). Plain Run ignores it; inheritance and replay live in Pipeline.
	CheckpointDir string
}

// cancelled reports the context's error once it is done.
func (c Config) cancelled() error {
	if c.Context == nil {
		return nil
	}
	select {
	case <-c.Context.Done():
		return c.Context.Err()
	default:
	}
	return nil
}

// cancelCheck returns the polling form of cancelled for components that
// cannot see the Config (the spill fetch); nil when the job has no
// context, so the unconfigured path stays a nil comparison.
func (c Config) cancelCheck() func() error {
	if c.Context == nil {
		return nil
	}
	ctx := c.Context
	return func() error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
}

// maxAttempts resolves how many times a failing task is tried before the
// job aborts; unset means 4, Hadoop's default.
func (c Config) maxAttempts() int {
	if c.Fault.MaxAttempts > 0 {
		return c.Fault.MaxAttempts
	}
	return 4
}

func (c Config) cluster() *Cluster {
	if c.Cluster != nil {
		return c.Cluster
	}
	return DefaultCluster()
}

// resolvedReduceTasks resolves the effective reduce-task count — shared
// by Run and the pipeline's checkpoint fingerprinting, which must agree
// with the execution for a replayed stage to be byte-identical.
func (c Config) resolvedReduceTasks() int {
	n := c.ReduceTasks
	if n <= 0 {
		n = 3 * c.cluster().Nodes
	}
	if n < 1 {
		n = 1
	}
	return n
}

// memoryBudget resolves the effective shuffle memory budget: an explicit
// positive value wins, zero defers to FSJOIN_MEMORY_BUDGET (so a CI job
// can force the whole suite through the spill path), and any negative
// value — from config or environment — means unbounded. A variable that is
// not an integer is refused: a mistyped test switch must not run the
// unbounded path and pass.
func (c Config) memoryBudget() (int64, error) {
	b := c.MemoryBudgetBytes
	if b == 0 {
		if s := os.Getenv("FSJOIN_MEMORY_BUDGET"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("mapreduce: FSJOIN_MEMORY_BUDGET=%q is not a byte count", s)
			}
			b = v
		}
	}
	return max(b, 0), nil
}

// Context is the per-task emit/counter surface handed to mappers and
// reducers.
type Context struct {
	// TaskID is the index of the running task within its phase.
	TaskID int
	// Job exposes the job configuration to tasks.
	Job Config
	// Local is the task attempt's own state: nil when the attempt starts,
	// whatever the mapper or reducer stores there afterwards, and dropped
	// with the attempt. The engine shares one Mapper (and one Reducer)
	// across every task of the job, and tasks run concurrently under
	// Config.Parallelism, so state that belongs to a single attempt — an
	// in-mapper combiner's counts, filled in Map and emitted in Cleanup —
	// cannot live in the mapper; a failed attempt's Local is never seen by
	// its retry.
	Local any

	out      spill.Records
	sizer    spill.Sizer // sizes out's values
	shuffle  *shuffleSink
	counters *Counters
	local    []localCounter
	polls    uint32 // CheckCancel call count (per-task, single goroutine)
}

// localCounter is one task-local counter. A task touches a handful of
// constant names, so a slice scanned linearly beats hashing the name on
// every increment: comparing a name with itself stops at the pointer.
type localCounter struct {
	name string
	v    int64
}

// Emit appends an output pair, sized here. Map tasks of jobs with a reduce
// phase route the pair straight into its reduce partition. A key longer
// than spill.MaxKeyLen fails the task with spill.ErrLongKey.
func (c *Context) Emit(key string, value any) {
	if err := spill.CheckKey(key); err != nil {
		panic(&enginePanic{err: fmt.Errorf("emit: %w", err)})
	}
	if c.shuffle != nil {
		c.shuffle.add(key, value)
		return
	}
	c.out.Append(key, value, recordBytes(key, c.sizer.Size(value)))
}

// EmitPair is ctx.Emit(PairKey(a, b), v) — the same record, key bytes and
// accounted size — for a caller that holds a T. Once the column the record
// goes to — the task's output, or in a map task that shuffles the reduce
// partition the key routes to — holds values of T's registered,
// pointer-free type, the value goes in unboxed, sized by the column's
// codec, and the key as the eight bytes it is: no box and no key string.
// Anything else — a column's first record, a column of another kind, a
// combiner with no unboxed fold — takes Emit.
func EmitPair[T any](ctx *Context, a, b uint32, v T) {
	emitTyped(ctx, spill.KeyIndex{Prefix: uint64(a)<<32 | uint64(b), Len: 8}, v, pairOverhead)
}

// EmitU32 is ctx.Emit(U32Key(x), v), as EmitPair is of a pair key.
func EmitU32[T any](ctx *Context, x uint32, v T) {
	emitTyped(ctx, spill.KeyIndex{Prefix: uint64(x) << 32, Len: 4}, v, u32Overhead)
}

// What recordBytes charges a pair record and a U32Key record beside its
// value.
var pairOverhead, u32Overhead = recordBytes(PairKey(0, 0), 0), recordBytes(U32Key(0), 0)

// emitTyped is ctx.Emit of the key k holds, whose record is accounted at
// overhead plus v's size: the typed emit EmitPair and EmitU32 share. A
// reduce task's output takes it through
// spill.AppendTyped, and where that refuses through Emit; a map task's
// partition through spill.AddTyped (shuffleSink.addTyped), and where that
// refuses through Buffer.Add.
func emitTyped[T any](ctx *Context, k spill.KeyIndex, v T, overhead int64) {
	if ctx.shuffle != nil {
		addTyped(ctx.shuffle, k, v, overhead)
	} else if !spill.AppendTyped(&ctx.out, k, v, overhead) {
		ctx.Emit(spill.ShortKey(k), v)
	}
}

// Inc adds delta to a job counter. Increments accumulate task-locally and
// are merged into the job counters when the task finishes.
func (c *Context) Inc(counter string, delta int64) {
	for i := range c.local {
		if c.local[i].name == counter {
			c.local[i].v += delta
			return
		}
	}
	c.local = append(c.local, localCounter{counter, delta})
}

// flushCounters merges task-local counters into the job counters.
func (c *Context) flushCounters() {
	for _, lc := range c.local {
		c.counters.Inc(lc.name, lc.v)
	}
	c.local = nil
}

// discard releases everything a failed task attempt buffered: its shuffle
// sink's partitions, whose chunks go back to their pools, and with the
// last of them its spill file. Only failed attempts are discarded, by the
// attempt loop before it moves on; the winning context's sink is handed to
// the reduce phase, whose tasks release its partitions one each.
func (c *Context) discard() {
	if c == nil {
		return
	}
	if c.shuffle != nil {
		for p := 0; p < c.shuffle.reducers; p++ {
			c.shuffle.buf.Release(p)
		}
	}
	c.local = nil
}

// Metrics records everything measured while running a job, plus the
// simulated cluster makespan.
type Metrics struct {
	Job               string
	MapTasks          int
	ReduceTasks       int
	MapInputRecords   int64
	ShuffleRecords    int64 // after combiner: what the reduce tasks fetched
	ShuffleBytes      int64 // after combiner: what the reduce tasks fetched
	ReduceInputGroups int64
	OutputRecords     int64
	OutputBytes       int64
	PerReduceRecords  []int64
	PerReduceBytes    []int64
	MapTaskTime       []time.Duration
	ReduceTaskTime    []time.Duration
	// GroupSpillTime is the per-reduce-task external-memory charge for key
	// groups exceeding the reducer memory (see Cluster.ReducerMemoryBytes).
	GroupSpillTime []time.Duration
	// SpillRuns and SpillBytes total the spills the out-of-core shuffle
	// wrote under Config.MemoryBudgetBytes (winning attempts only);
	// ShufflePeakBytes is the largest in-memory shuffle buffer any
	// map task held. All zero when the budget is unbounded.
	SpillRuns          int64
	SpillBytes         int64
	ShufflePeakBytes   int64
	SimulatedMapTime   time.Duration
	SimulatedShuffle   time.Duration
	SimulatedReduce    time.Duration
	SimulatedTotalTime time.Duration
	WallTime           time.Duration
}

// LoadImbalance returns max/mean of per-reducer shuffle bytes — 1.0 is a
// perfectly balanced reduce phase. Returns 0 when there was no reduce input.
func (m *Metrics) LoadImbalance() float64 {
	var sum, max int64
	for _, b := range m.PerReduceBytes {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 || len(m.PerReduceBytes) == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(m.PerReduceBytes))
	return float64(max) / mean
}

// Result is the outcome of one job.
type Result struct {
	// Output holds all reducer (or mapper, for map-only jobs) emissions in
	// deterministic order: by reduce task, then key, then emission order;
	// nil after Pipeline.Feed.
	Output []KV
	// Counters are the merged user counters.
	Counters *Counters
	// Metrics are the measured and simulated execution statistics.
	Metrics Metrics

	chain *chainInput
}

// FNV-1a's 32-bit parameters.
const (
	offset32 = 2166136261
	prime32  = 16777619
)

// DefaultPartitioner routes the key k holds by its 32-bit FNV-1a hash,
// modulo reducers: hashed from k's prefix, most significant byte first, so
// routing is bit-identical to hash/fnv over the key's bytes without a
// hasher or a key string.
func DefaultPartitioner(k spill.KeyIndex, reducers int) int {
	h := uint32(offset32)
	for s := 56; s > 56-8*int(k.Len); s -= 8 {
		h ^= uint32(byte(k.Prefix >> s))
		h *= prime32
	}
	return int(h % uint32(reducers))
}

// Run executes one MapReduce job over the input. A nil reducer makes the
// job map-only. Map tasks emit straight into per-reduce-task buffers
// (map-side pre-partitioning), so there is no separate partition pass; the
// job driver hands each map task's buffer to the reduce tasks directly, and
// each reduce task sorts and groups its partition of every map task where
// it lies, copying only what it decodes from spill files. Tasks run sequentially
// or on a bounded worker pool per Config.Parallelism, with per-task slots
// so assembly order — and therefore Output, counters and every shuffle
// metric — is identical at any parallelism level.
func Run(cfg Config, input []KV, mapper Mapper, reducer Reducer) (*Result, error) {
	return run(cfg, jobInput{kvs: input}, mapper, reducer, false)
}

// run is Run over either kind of input; feed keeps the output for Chain.
func run(cfg Config, in jobInput, mapper Mapper, reducer Reducer, feed bool) (*Result, error) {
	env, err := newJobEnv(cfg, in, mapper, reducer, feed)
	if err != nil {
		return nil, err
	}
	return runJob(env)
}

// newJobEnv validates a job and resolves its execution parameters.
func newJobEnv(cfg Config, in jobInput, mapper Mapper, reducer Reducer, feed bool) (*jobEnv, error) {
	if mapper == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no mapper", cfg.Name)
	}
	if cfg.Combiner != nil && reducer == nil {
		return nil, fmt.Errorf("mapreduce: job %q is map-only and has a combiner", cfg.Name)
	}
	cl := cfg.cluster()
	mapTasks := cfg.MapTasks
	if mapTasks <= 0 {
		mapTasks = cl.Slots()
	}
	if mapTasks > in.len() {
		mapTasks = in.len()
	}
	if mapTasks < 1 {
		mapTasks = 1
	}
	budget, err := cfg.memoryBudget()
	if err != nil {
		return nil, err
	}
	if err := spill.Groupable(mapTasks); reducer != nil && err != nil {
		return nil, fmt.Errorf("mapreduce: job %q has %d map tasks, and its reduce tasks group one partition of each: %w", cfg.Name, mapTasks, err)
	}
	reduceTasks := cfg.resolvedReduceTasks()
	foldingReducer, folding := reducer.(FoldingReducer)
	return &jobEnv{
		cfg:            cfg,
		cl:             cl,
		mapper:         mapper,
		reducer:        reducer,
		mapTasks:       mapTasks,
		reduceTasks:    reduceTasks,
		folding:        folding,
		foldingReducer: foldingReducer,
		budget:         budget,
		quarantine:     &quarantineState{},
		in:             in,
		feed:           feed,
	}, nil
}

// jobEnv bundles one run's resolved execution parameters, shared by every
// task of the job.
type jobEnv struct {
	cfg            Config
	cl             *Cluster
	mapper         Mapper
	reducer        Reducer
	mapTasks       int
	reduceTasks    int
	folding        bool
	foldingReducer FoldingReducer
	budget         int64
	quarantine     *quarantineState
	in             jobInput
	feed           bool

	// pos is the job's one ascending 0, 1, 2, … array: see positions.
	posMu sync.Mutex
	pos   []int32
}

// positions returns 0, 1, …, n-1: the units of a task over records or
// groups addressed by position. Every task of the job gets a prefix of one
// shared array, capped at n so no holder can append into it. Units are
// only read (skip mode edits a copy), and a longer request grows into a
// new array, so an array a task holds is never written again.
func (env *jobEnv) positions(n int) []int32 {
	env.posMu.Lock()
	defer env.posMu.Unlock()
	if len(env.pos) < n {
		p := make([]int32, max(n, 2*len(env.pos)))
		for i := range p {
			p[i] = int32(i)
		}
		env.pos = p
	}
	return env.pos[:n:n]
}

// jobErr tags a failure that belongs to no single task with the job.
func (env *jobEnv) jobErr(err error) error {
	return fmt.Errorf("mapreduce: job %q: %w", env.cfg.Name, err)
}

// runPhase runs one phase's n tasks on the bounded pool, checking for
// cancellation before each.
func (env *jobEnv) runPhase(n int, task func(t int) error) error {
	return RunPhase(env.cfg.Parallelism, n, func(t int) error {
		if err := env.cfg.cancelled(); err != nil {
			return env.jobErr(err)
		}
		return task(t)
	})
}

// taskMeta travels with a committed task: the measured facts the job
// driver assembles Metrics and Counters from.
type taskMeta struct {
	// Records and Bytes are what a reduce task fetched — its share of the
	// shuffle, and the only place the shuffle is counted.
	Records int64
	Bytes   int64
	// Groups is the reduce task's key-group count.
	Groups int64
	// TaskNanos is the measured task execution time.
	TaskNanos int64
	// GroupSpillNanos is the reduce task's external-memory charge for
	// oversized key groups (cost model).
	GroupSpillNanos int64
	// Spill is the winning map attempt's out-of-core shuffle accounting.
	Spill spill.Stats
	// Counters is the task-local counter snapshot.
	Counters map[string]int64
}

// commits holds one job's committed tasks in per-task slots. Tasks fill
// their own slots, so they may commit concurrently.
type commits struct {
	sinks   []*shuffleSink // by map task: its partitions, live for the reduce tasks
	mapMeta []taskMeta
	outs    []*spill.Records // by the task that committed an output
	outMeta []taskMeta
}

func newCommits(env *jobEnv) *commits {
	outs := max(env.mapTasks, env.reduceTasks)
	return &commits{
		sinks:   make([]*shuffleSink, env.mapTasks),
		mapMeta: make([]taskMeta, env.mapTasks),
		outs:    make([]*spill.Records, outs),
		outMeta: make([]taskMeta, outs),
	}
}

// close reclaims the spill files of every sink that survives, on every
// return path of the job, an aborted reduce phase included.
func (c *commits) close() {
	for _, s := range c.sinks {
		s.close()
	}
}

// runJob is the engine's one job driver. A task commits its artifact
// together with everything measured about it into its own slots, and the
// Result is assembled from those commits alone.
func runJob(env *jobEnv) (*Result, error) {
	cfg, cl, mapTasks, reduceTasks := env.cfg, env.cl, env.mapTasks, env.reduceTasks
	c := newCommits(env)
	defer c.close()
	res := &Result{Counters: NewCounters()}
	m := &res.Metrics
	m.Job = cfg.Name
	m.MapTasks = mapTasks
	m.ReduceTasks = reduceTasks
	m.MapInputRecords = int64(env.in.len())
	wallStart := time.Now()

	if err := env.mapPhase(c); err != nil {
		return nil, err
	}
	m.MapTaskTime = make([]time.Duration, mapTasks)
	if env.reducer == nil {
		// Map-only job: the map tasks' outputs in task order are the result.
		env.collectOutput(c, res, mapTasks, func(t int, meta taskMeta) {
			m.MapTaskTime[t] = time.Duration(meta.TaskNanos)
		})
		m.ShuffleRecords, m.ShuffleBytes = m.OutputRecords, m.OutputBytes
		m.ReduceTasks = 0
		m.SimulatedMapTime = simPhase(cl, m.MapTaskTime)
		m.SimulatedTotalTime = m.SimulatedMapTime
		m.WallTime = time.Since(wallStart)
		return res, nil
	}
	for t, meta := range c.mapMeta {
		m.MapTaskTime[t] = time.Duration(meta.TaskNanos)
		m.SpillRuns += meta.Spill.Runs
		m.SpillBytes += meta.Spill.SpilledBytes
		m.ShufflePeakBytes = max(m.ShufflePeakBytes, meta.Spill.PeakBytes)
		mergeTaskCounters(res.Counters, meta.Counters)
	}

	// ---- Reduce phase (per-reducer shuffle, group, sort, reduce) ----
	if err := env.runPhase(reduceTasks, func(t int) error {
		return env.reduceTask(c, t)
	}); err != nil {
		return nil, err
	}
	m.PerReduceRecords = make([]int64, reduceTasks)
	m.PerReduceBytes = make([]int64, reduceTasks)
	m.ReduceTaskTime = make([]time.Duration, reduceTasks)
	m.GroupSpillTime = make([]time.Duration, reduceTasks)
	// The shuffle is measured once, where it moves: the job's totals are
	// the sum of what its reduce tasks fetched.
	env.collectOutput(c, res, reduceTasks, func(t int, meta taskMeta) {
		m.PerReduceRecords[t] = meta.Records
		m.PerReduceBytes[t] = meta.Bytes
		m.ShuffleRecords += meta.Records
		m.ShuffleBytes += meta.Bytes
		m.ReduceTaskTime[t] = time.Duration(meta.TaskNanos)
		m.GroupSpillTime[t] = time.Duration(meta.GroupSpillNanos)
		m.ReduceInputGroups += meta.Groups
	})
	applyCostModel(cl, m, mapTasks, reduceTasks)
	m.WallTime = time.Since(wallStart)
	return res, nil
}

// mapPhase runs the job's map tasks over splits of the KVs, or of positions
// in fed columns (Chain checks they fit an int32), committing each into c.
func (env *jobEnv) mapPhase(c *commits) error {
	if ch := env.in.chain; ch != nil {
		splits := splitInput(env.positions(ch.len()), env.mapTasks)
		return env.runPhase(env.mapTasks, func(t int) error { return mapTask(env, c, t, splits[t], ch.mapUnits, ch.at) })
	}
	splits := splitInput(env.in.kvs, env.mapTasks)
	return env.runPhase(env.mapTasks, func(t int) error {
		return mapTask(env, c, t, splits[t], env.mapKVs, func(kv KV) (string, any) { return kv.Key, kv.Value })
	})
}

// mapTask is one map task: the attempt loop against a task-local counter
// set, then the commit — of the partitioned shuffle output, or for a
// map-only job of the output itself.
func mapTask[U any](env *jobEnv, c *commits, t int, split []U, body taskBody[U], describe func(U) (string, any)) error {
	tc := NewCounters()
	start := time.Now()
	ctx, err := attempts(env, tc, PhaseMap, t, split, body, describe)
	if err != nil {
		return taskErr(env.cfg.Name, PhaseMap, t, err)
	}
	meta := taskMeta{TaskNanos: int64(time.Since(start))}
	if env.reducer == nil {
		c.commitOutput(t, ctx, tc, meta)
		return nil
	}
	meta.Spill = env.finishMapTask(tc, ctx)
	meta.Counters = tc.Snapshot()
	c.sinks[t], c.mapMeta[t] = ctx.shuffle, meta
	return nil
}

// reduceTask is one reduce task: fetch and group its partition, releasing
// what it fetched, run the attempt loop and commit the output.
func (env *jobEnv) reduceTask(c *commits, t int) error {
	cfg := env.cfg
	in, err := env.fetchReduceInput(c, t)
	if err != nil {
		return taskErr(cfg.Name, PhaseReduce, t, err)
	}
	tc := NewCounters()
	if in.maxWays > 1 {
		tc.Max(CounterSpillMergeWays, int64(in.maxWays))
	}
	start := time.Now()
	ctx, err := attempts(env, tc, PhaseReduce, t, env.positions(in.Len()), env.reduceGroups(in),
		func(g int32) (string, any) { return in.Key(int(g), spill.NewKeyArena(1)), nil })
	if err != nil {
		return taskErr(cfg.Name, PhaseReduce, t, err)
	}
	meta := taskMeta{
		Records: in.recs, Bytes: in.bytes, Groups: int64(in.Len()),
		TaskNanos: int64(time.Since(start)),
	}
	for _, b := range in.Sizes {
		meta.GroupSpillNanos += int64(env.cl.groupSpillTime(b))
	}
	c.commitOutput(t, ctx, tc, meta)
	return nil
}

// commitOutput keeps a winning attempt's emissions as task t's final
// output.
func (c *commits) commitOutput(t int, ctx *Context, tc *Counters, meta taskMeta) {
	ctx.flushCounters()
	meta.Counters = tc.Snapshot()
	c.outs[t], c.outMeta[t] = &ctx.out, meta
}

// collectOutput gathers a phase's committed task outputs in task order —
// kept for Chain, or boxed into Result.Output allocated at its length —
// folding each task's counters into the job's and handing its meta to each.
func (env *jobEnv) collectOutput(c *commits, res *Result, tasks int, each func(t int, meta taskMeta)) {
	outs := c.outs[:tasks]
	for t, out := range outs {
		res.Metrics.OutputBytes += out.Bytes()
		mergeTaskCounters(res.Counters, c.outMeta[t].Counters)
		each(t, c.outMeta[t])
	}
	chain := newChainInput(outs)
	res.Metrics.OutputRecords = int64(chain.len())
	if env.feed {
		res.chain = chain
		return
	}
	if n := chain.len(); n > 0 {
		res.Output = make([]KV, 0, n)
	}
	jobInput{chain: chain}.each(func(key string, v any) { res.Output = append(res.Output, KV{Key: key, Value: v}) })
}

// taskBody runs one task over its input units — a map task's input
// records, a reduce task's key groups — into ctx, realising a
// FaultRecordPanic of f at its unit index. counters is nil for skip-mode
// probes, which inject without counting.
type taskBody[U any] func(ctx *Context, units []U, f Fault, counters *Counters)

// attempts executes one task's full attempt loop — retries and, on
// deterministic failure, skip mode — and returns the winning
// context. Every attempt is one Hadoop task attempt: its phase's scheduled
// fault brackets the body, and for a map task of a job with a combiner the
// combine fault fires inside that bracket, after the body (the folding
// itself happened at Emit), so the two fail together. The loop is
// parameterised by its units so skip mode can re-enter it over a working
// set with the poison units removed; describe names a unit for the
// quarantine sink. counters is the task-local set the attempt bookkeeping
// lands in.
func attempts[U any](env *jobEnv, counters *Counters, phase Phase, t int, units []U,
	body taskBody[U], describe func(U) (key string, value any)) (*Context, error) {
	cfg := env.cfg
	shuffles := phase == PhaseMap && env.reducer != nil
	loop := func(units []U) (*Context, error) {
		return withRetries(cfg, counters, func(a int) (*Context, error) {
			ctx := &Context{TaskID: t, Job: cfg, counters: counters}
			if shuffles {
				ctx.shuffle = newShuffleSink(cfg.Partitioner, env.reduceTasks, cfg.Combiner, env.budget, cfg.SpillDir, cfg.cancelCheck())
			}
			f := cfg.decideFault(phase, t, a)
			if err := f.injectErr(counters); err != nil {
				return ctx, err
			}
			return ctx, guard(func() {
				f.injectEnter(counters)
				body(ctx, units, f, counters)
				if shuffles && cfg.Combiner != nil {
					fc := cfg.decideFault(PhaseCombine, t, a)
					fc.injectEnter(counters)
					fc.injectExit(counters)
				}
				f.injectExit(counters)
			})
		})
	}
	ctx, err := loop(units)
	if err != nil && cfg.Fault.SkipBadRecords && !isCancellation(err) {
		ctx, err = skipUnits(env, counters, phase, t, units, body, describe, loop, err)
	}
	return ctx, err
}

// finishMapTask settles a winning map attempt's shuffle accounting: spill
// counters are flushed winner-only (the surviving attempt's buffer is the
// one whose partitions the reduce phase fetches; counters are recorded only
// under an active budget so unbounded runs keep their historical counter
// surface). What the task shuffled is not counted here: the reduce tasks
// count it as they fetch it.
func (env *jobEnv) finishMapTask(counters *Counters, ctx *Context) spill.Stats {
	ctx.shuffle.buf.Trim()
	st := ctx.shuffle.buf.Stats()
	if st.Runs > 0 {
		ctx.Inc(CounterSpillRuns, st.Runs)
		ctx.Inc(CounterSpillBytes, st.SpilledBytes)
	}
	ctx.flushCounters()
	if env.budget > 0 {
		counters.Max(CounterShufflePeak, st.PeakBytes)
	}
	return st
}

// reduceInput is one reduce task's input: the records it fetched, cut into
// key groups in key order. A plain reducer's group holds its values in
// map-task then emission order; a folding reducer's holds one folded
// accumulator.
type reduceInput struct {
	*spill.Groups
	maxWays int
	recs    int64
	bytes   int64
}

// fetchReduceInput pulls reduce task t's partition from every map task's
// sink and groups them by key, in map-task order, as one stream: a
// partition still in memory is read where it lies, and only a spilled one
// is decoded, into columns the task's fetches share, through one
// spill.Fetcher they share too. Either way a map task's partition
// arrives in emission order — a spilled one's runs in the order they were
// written, then its tail — so arrival order within one key is map-task
// then emission order. Once grouped, every fetched partition and the
// columns it was decoded onto are released, their chunks going back to
// the pools the next partitions grow from: the groups hold nothing of
// them. Guarded so a panicking Fold aborts the task, not the process.
func (env *jobEnv) fetchReduceInput(c *commits, t int) (*reduceInput, error) {
	in := &reduceInput{}
	if gerr := guard(func() {
		var fetched spill.Records
		var f spill.Fetcher
		srcs := make([]spill.Source, env.mapTasks)
		for mt := range srcs {
			src, ways, err := c.sinks[mt].buf.Fetch(t, &fetched, &f)
			if err != nil {
				panic(&enginePanic{err: fmt.Errorf("shuffle fetch: %w", err)})
			}
			srcs[mt] = src
			in.maxWays = max(in.maxWays, ways)
			in.recs += int64(src.Hi - src.Lo)
		}
		var fold func(acc, v any) any
		if env.folding {
			fold = env.foldingReducer.Fold
		}
		groups, err := spill.Group(srcs, fold, env.foldingReducer)
		if err != nil {
			panic(&enginePanic{err: fmt.Errorf("shuffle fetch: %w", err)})
		}
		fetched.Release()
		f.Release()
		for _, s := range c.sinks {
			s.buf.Release(t)
		}
		in.Groups = groups
		for _, b := range groups.Sizes {
			in.bytes += b
		}
	}); gerr != nil {
		return nil, gerr
	}
	return in, nil
}

// reduceGroups returns a reduce task's body over fetched input: the reducer
// run over groups by index — every group of in, or in skip mode those left
// after quarantining. An attempt builds key strings, where its reducer
// takes them, in an arena of its own.
func (env *jobEnv) reduceGroups(in *reduceInput) taskBody[int32] {
	reducer := env.reducer
	finisher, _ := reducer.(GroupFinisher)
	return func(ctx *Context, groups []int32, f Fault, counters *Counters) {
		if s, ok := reducer.(Setupper); ok {
			s.Setup(ctx)
		}
		keys := spill.NewKeyArena(len(groups))
		for n, g := range groups {
			ctx.CheckCancel()
			f.injectRecord(n, counters)
			switch {
			case !env.folding:
				reducer.Reduce(ctx, in.Key(int(g), keys), in.Values(int(g)))
			case finisher != nil:
				finisher.FinishGroup(ctx, in.Groups, int(g))
			default:
				env.foldingReducer.FinishFold(ctx, in.Key(int(g), keys), in.Acc(int(g)))
			}
		}
		if c, ok := reducer.(Cleanupper); ok {
			c.Cleanup(ctx)
		}
	}
}

// applyCostModel fills the simulated cluster times from measured metrics.
func applyCostModel(cl *Cluster, m *Metrics, mapTasks, reduceTasks int) {
	m.SimulatedMapTime = simPhase(cl, m.MapTaskTime)
	m.SimulatedShuffle = cl.spillTime(m.ShuffleBytes, mapTasks) +
		cl.measuredSpillTime(m.SpillBytes)
	reduceDurs := make([]time.Duration, reduceTasks)
	for t := range reduceDurs {
		// Each reduce task fetches its own shuffle share (skewed reducers
		// stall the phase), pays its measured CPU, and any external-merge
		// passes for oversized groups.
		reduceDurs[t] = cl.fetchTime(m.PerReduceBytes[t]) + cl.scaleCPU(m.ReduceTaskTime[t]) +
			cl.TaskOverhead + m.GroupSpillTime[t]
	}
	m.SimulatedReduce = cl.makespan(reduceDurs)
	m.SimulatedTotalTime = m.SimulatedMapTime + m.SimulatedShuffle + m.SimulatedReduce
}

// mapKVs feeds one split through the mapper with lifecycle hooks, polling
// for cancellation on the engine's bounded stride.
func (env *jobEnv) mapKVs(ctx *Context, split []KV, f Fault, counters *Counters) {
	mapper := env.mapper
	if s, ok := mapper.(Setupper); ok {
		s.Setup(ctx)
	}
	for n, kv := range split {
		ctx.CheckCancel()
		f.injectRecord(n, counters)
		mapper.Map(ctx, kv)
	}
	if c, ok := mapper.(Cleanupper); ok {
		c.Cleanup(ctx)
	}
}

// simPhase converts measured task times into a simulated phase makespan.
func simPhase(cl *Cluster, taskTimes []time.Duration) time.Duration {
	if len(taskTimes) == 0 {
		return 0
	}
	durs := make([]time.Duration, len(taskTimes))
	for i, d := range taskTimes {
		durs[i] = cl.scaleCPU(d) + cl.TaskOverhead
	}
	return cl.makespan(durs)
}

// splitInput slices input into n contiguous, near-equal splits.
func splitInput[T any](input []T, n int) [][]T {
	splits := make([][]T, n)
	base, rem := len(input)/n, len(input)%n
	off := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		splits[i] = input[off : off+sz]
		off += sz
	}
	return splits
}
