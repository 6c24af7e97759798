package mapreduce

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"fsjoin/internal/spill"
)

// budgetInput is a wordcount corpus big enough that a few-KiB budget forces
// several spills per map task.
func budgetInput(lines, wordsPerLine, vocab int) []KV {
	kvs := make([]KV, lines)
	for i := 0; i < lines; i++ {
		var b strings.Builder
		for j := 0; j < wordsPerLine; j++ {
			fmt.Fprintf(&b, "word%03d ", (i*wordsPerLine+j*7)%vocab)
		}
		kvs[i] = KV{Key: fmt.Sprint(i), Value: b.String()}
	}
	return kvs
}

// noSpillFiles fails the test if dir still holds any entries. Nothing
// cleans up after a job has returned, so the check is made once.
func noSpillFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill files leaked in %s: %v", dir, names)
	}
}

// TestMemoryBudgetEquivalence is the tentpole property at engine level:
// for plain, combining and folding wordcount jobs, output and user-visible
// counters are byte-identical at any budget and any parallelism, while
// tiny budgets actually spill.
func TestMemoryBudgetEquivalence(t *testing.T) {
	// Vocabulary large enough that even per-key folded slots overflow a
	// 4 KiB budget.
	input := budgetInput(24, 40, 400)
	configs := map[string]func() Config{
		"plain": func() Config { return Config{Cluster: tinyCluster(), MapTasks: 4, ReduceTasks: 3} },
		"combiner": func() Config {
			return Config{Cluster: tinyCluster(), MapTasks: 4, ReduceTasks: 3, Combiner: wcReducer{}}
		},
		"folding": func() Config {
			return Config{Cluster: tinyCluster(), MapTasks: 4, ReduceTasks: 3, Combiner: foldingWC{}}
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			base, err := Run(mk(), input, wcMapper{}, wcReducer{})
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{64 << 10, 4 << 10} {
				for _, par := range []int{1, 4} {
					cfg := mk()
					cfg.Parallelism = par
					cfg.MemoryBudgetBytes = budget
					cfg.SpillDir = t.TempDir()
					res, err := Run(cfg, input, wcMapper{}, wcReducer{})
					if err != nil {
						t.Fatalf("budget %d par %d: %v", budget, par, err)
					}
					if !reflect.DeepEqual(res.Output, base.Output) {
						t.Fatalf("budget %d par %d: output differs from unbounded", budget, par)
					}
					if res.Metrics.ShuffleRecords != base.Metrics.ShuffleRecords ||
						res.Metrics.ShuffleBytes != base.Metrics.ShuffleBytes {
						t.Fatalf("budget %d par %d: shuffle accounting drifted: (%d,%d) vs (%d,%d)",
							budget, par, res.Metrics.ShuffleRecords, res.Metrics.ShuffleBytes,
							base.Metrics.ShuffleRecords, base.Metrics.ShuffleBytes)
					}
					if budget == 4<<10 && res.Counters.Get(CounterSpillRuns) == 0 {
						t.Fatalf("budget %d par %d: nothing spilled", budget, par)
					}
					noSpillFiles(t, cfg.SpillDir)
				}
			}
		})
	}
}

// TestMemoryBudgetSpillCounters pins the counter semantics: a budget small
// enough forces >= 2 runs per map task; runs, bytes, merge ways and peak
// are recorded, deterministic across parallelism, and absent without a
// budget.
func TestMemoryBudgetSpillCounters(t *testing.T) {
	input := budgetInput(24, 40, 90)
	const mapTasks = 4
	mk := func(par int) Config {
		return Config{Cluster: tinyCluster(), MapTasks: mapTasks, ReduceTasks: 3,
			Parallelism: par, MemoryBudgetBytes: 2 << 10, SpillDir: t.TempDir()}
	}
	res1, err := Run(mk(1), input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if runs := res1.Counters.Get(CounterSpillRuns); runs < 2*mapTasks {
		t.Fatalf("spill.runs = %d, want >= %d (2 per map task)", runs, 2*mapTasks)
	}
	if res1.Counters.Get(CounterSpillBytes) == 0 {
		t.Fatal("spill.bytes = 0 despite runs")
	}
	if ways := res1.Counters.Get(CounterSpillMergeWays); ways < 2 {
		t.Fatalf("spill.merge.ways = %d, want >= 2", ways)
	}
	peak := res1.Counters.Get(CounterShufflePeak)
	if peak == 0 {
		t.Fatal("shuffle.peak.bytes not recorded")
	}
	if m := res1.Metrics; m.SpillRuns != res1.Counters.Get(CounterSpillRuns) ||
		m.SpillBytes != res1.Counters.Get(CounterSpillBytes) ||
		m.ShufflePeakBytes != peak {
		t.Fatalf("Metrics spill fields disagree with counters: %+v", m)
	}
	res4, err := Run(mk(4), input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Counters.Snapshot(), res4.Counters.Snapshot()) {
		t.Fatalf("spill counters parallelism-dependent:\npar1 %v\npar4 %v",
			res1.Counters.Snapshot(), res4.Counters.Snapshot())
	}

	// Budget -1 (not 0) so the assertion holds even when the suite runs
	// with FSJOIN_MEMORY_BUDGET exported, as the CI low-memory job does.
	unbounded, err := Run(Config{Cluster: tinyCluster(), MapTasks: mapTasks, ReduceTasks: 3,
		MemoryBudgetBytes: -1}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{CounterSpillRuns, CounterSpillBytes, CounterSpillMergeWays, CounterShufflePeak} {
		if v := unbounded.Counters.Get(c); v != 0 {
			t.Fatalf("unbounded run recorded %s=%d", c, v)
		}
	}
	if unbounded.Metrics.SimulatedShuffle > res1.Metrics.SimulatedShuffle {
		t.Fatal("cost model does not charge spilled runs")
	}
}

// TestMemoryBudgetEnvDefault: Config.MemoryBudgetBytes == 0 defers to
// FSJOIN_MEMORY_BUDGET; a negative config value forces unbounded even with
// the env set.
func TestMemoryBudgetEnvDefault(t *testing.T) {
	t.Setenv("FSJOIN_MEMORY_BUDGET", "2048")
	input := budgetInput(16, 40, 80)
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	res, err := Run(Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2},
		input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CounterSpillRuns) == 0 {
		t.Fatal("env budget did not take effect")
	}
	noSpillFiles(t, dir)

	forced, err := Run(Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
		MemoryBudgetBytes: -1}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Counters.Get(CounterSpillRuns) != 0 {
		t.Fatal("negative budget did not force unbounded")
	}
	if !reflect.DeepEqual(forced.Output, res.Output) {
		t.Fatal("budgeted and unbounded outputs differ")
	}
}

// TestSpillCleanupOnJobAbort: a mid-map failure after spills leaves no
// files behind — failed attempts discard their buffers and surviving
// sinks are closed when the phase errors out.
func TestSpillCleanupOnJobAbort(t *testing.T) {
	input := budgetInput(16, 40, 80)
	dir := t.TempDir()
	boom := MapFunc(func(ctx *Context, kv KV) {
		wcMapper{}.Map(ctx, kv)
		if kv.Key == "15" {
			panic("abort after spilling")
		}
	})
	_, err := Run(Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
		Fault: FaultPolicy{MaxAttempts: 1}, MemoryBudgetBytes: 1 << 10, SpillDir: dir},
		input, boom, wcReducer{})
	if err == nil {
		t.Fatal("job should have aborted")
	}
	noSpillFiles(t, dir)
}

// TestSpillCleanupOnRetry: attempts that fail after spilling are discarded
// (files removed) and the retry's fresh buffer wins; output is identical to
// the fault-free run.
func TestSpillCleanupOnRetry(t *testing.T) {
	input := budgetInput(16, 40, 80)
	want, err := Run(Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2},
		input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	flaky := &flakyMapper{attempts: map[int]int{}, failUntil: 2}
	// flakyMapper panics before emitting, so spills come from surviving
	// attempts; panic at the END of a task instead, after its spills.
	late := MapFunc(func(ctx *Context, kv KV) {
		wcMapper{}.Map(ctx, kv)
		flaky.mu.Lock()
		n := flaky.attempts[ctx.TaskID]
		fail := kv.Key == "15" && n < flaky.failUntil
		if fail {
			flaky.attempts[ctx.TaskID] = n + 1
		}
		flaky.mu.Unlock()
		if fail {
			panic(fmt.Sprintf("late failure (attempt %d)", n+1))
		}
	})
	res, err := Run(Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
		Fault: FaultPolicy{MaxAttempts: 4}, MemoryBudgetBytes: 1 << 10, SpillDir: dir},
		input, late, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, want.Output) {
		t.Fatal("retried spilling job output differs")
	}
	if res.Counters.Get(CounterRetries) == 0 {
		t.Fatal("no retry happened")
	}
	noSpillFiles(t, dir)
}

// TestPipelineInheritsMemoryBudget: stages inherit the pipeline's budget
// and spill dir, and MaxCounter aggregates the peak across stages.
func TestPipelineInheritsMemoryBudget(t *testing.T) {
	dir := t.TempDir()
	p := NewPipeline("budgeted", tinyCluster())
	p.MemoryBudgetBytes = 2 << 10
	p.SpillDir = dir
	input := budgetInput(16, 40, 80)
	res, err := p.Run(Config{Name: "stage1"}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(Config{Name: "stage2"}, res.Output, MapFunc(func(ctx *Context, kv KV) {
		ctx.Emit(kv.Key, kv.Value)
	}), wcReducer{}); err != nil {
		t.Fatal(err)
	}
	if p.Counter(CounterSpillRuns) == 0 {
		t.Fatal("pipeline stages did not inherit the budget")
	}
	if p.MaxCounter(CounterShufflePeak) == 0 {
		t.Fatal("MaxCounter(shuffle.peak.bytes) = 0")
	}
	if p.MaxCounter(CounterShufflePeak) > p.Counter(CounterShufflePeak) {
		t.Fatal("max across stages exceeds sum across stages")
	}
	noSpillFiles(t, dir)
}

// TestMemoryBudgetEnvMalformed: an FSJOIN_MEMORY_BUDGET that is not an
// integer fails the job before any task runs, with an error naming the
// variable and its value, through Run and a Pipeline alike; an explicit
// budget makes the variable moot.
func TestMemoryBudgetEnvMalformed(t *testing.T) {
	t.Setenv("FSJOIN_MEMORY_BUDGET", "4k")
	input := budgetInput(16, 40, 80)
	var mapped atomic.Int64
	mapper := MapFunc(func(ctx *Context, kv KV) { mapped.Add(1); wcMapper{}.Map(ctx, kv) })
	cfg := Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2}
	_, err := Run(cfg, input, mapper, wcReducer{})
	_, perr := NewPipeline("budget", tinyCluster()).Run(cfg, input, mapper, wcReducer{})
	for _, err := range []error{err, perr} {
		if err == nil || !strings.Contains(err.Error(), `FSJOIN_MEMORY_BUDGET="4k"`) {
			t.Fatalf("error %v, want one naming FSJOIN_MEMORY_BUDGET and its value", err)
		}
	}
	if n := mapped.Load(); n != 0 {
		t.Fatalf("%d records mapped before the budget was refused", n)
	}
	cfg.MemoryBudgetBytes = -1
	if _, err := Run(cfg, input, mapper, wcReducer{}); err != nil {
		t.Fatalf("explicit budget under a malformed variable: %v", err)
	}
}

// orderedValues is a plain reducer whose output is every value of a key in
// the order it arrived.
type orderedValues struct{}

func (orderedValues) Reduce(ctx *Context, key string, values []any) {
	ctx.Inc("values.seen", int64(len(values)))
	ctx.Emit(key, fmt.Sprint(values...))
}

// TestMixedResidentAndSpilledSources: under a budget only the map tasks of
// long lines exceed, each reduce task groups partitions read where they lie
// together with spilled ones merged into its own records — columns of
// strings, which hold pointers, and of int64 counts — and the job's
// output, user counters and deterministic metrics are those of the
// unbudgeted run, at parallelism 1 and 4.
func TestMixedResidentAndSpilledSources(t *testing.T) {
	// Four map tasks of six lines each; the first two tasks' lines are
	// long.
	input := make([]KV, 24)
	for i := range input {
		words := 4
		if i < 12 {
			words = 150
		}
		var b strings.Builder
		for j := 0; j < words; j++ {
			fmt.Fprintf(&b, "w%03d ", (i*words+j*7)%300)
		}
		input[i] = KV{Key: fmt.Sprint(i), Value: b.String()}
	}
	mapper := MapFunc(func(ctx *Context, kv KV) {
		line, _ := strconv.Atoi(kv.Key)
		for j, w := range strings.Fields(kv.Value.(string)) {
			ctx.Inc("words.mapped", 1)
			ctx.Emit(w, fmt.Sprint(line, ".", j))
		}
	})
	intMapper := MapFunc(func(ctx *Context, kv KV) {
		for _, w := range strings.Fields(kv.Value.(string)) {
			ctx.Emit(w, int64(1))
		}
	})
	for _, tc := range []struct {
		name     string
		mapper   Mapper
		combiner Folder
		reducer  Reducer
	}{
		{"plain", mapper, nil, orderedValues{}},
		{"folding", intMapper, foldingWC{}, foldingWC{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(par int, budget int64) Config {
				return Config{Cluster: tinyCluster(), MapTasks: 4, ReduceTasks: 3, Parallelism: par,
					Combiner: tc.combiner, MemoryBudgetBytes: budget, SpillDir: t.TempDir()}
			}
			base, err := Run(mk(1, -1), input, tc.mapper, tc.reducer)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				cfg := mk(par, 2<<10)
				resident, merged, err := FetchedSources(cfg, input, tc.mapper, tc.reducer)
				if err != nil {
					t.Fatalf("par %d: %v", par, err)
				}
				mixed := 0
				for r := range resident {
					if resident[r] && merged[r] {
						mixed++
					}
				}
				if mixed == 0 {
					t.Fatalf("par %d: no reduce task grouped both kinds of source (resident %v, merged %v)", par, resident, merged)
				}
				noSpillFiles(t, cfg.SpillDir)
				res, err := Run(cfg, input, tc.mapper, tc.reducer)
				if err != nil {
					t.Fatalf("par %d: %v", par, err)
				}
				if !reflect.DeepEqual(res.Output, base.Output) {
					t.Fatalf("par %d: output differs from the unbudgeted run", par)
				}
				got := res.Counters.Snapshot()
				for _, k := range []string{CounterSpillRuns, CounterSpillBytes, CounterSpillMergeWays, CounterShufflePeak} {
					delete(got, k)
				}
				if want := base.Counters.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("par %d: counters %v, want %v", par, got, want)
				}
				sameMetrics(t, fmt.Sprint("par ", par), &res.Metrics, &base.Metrics)
				if !reflect.DeepEqual(res.Metrics.GroupSpillTime, base.Metrics.GroupSpillTime) {
					t.Fatalf("par %d: GroupSpillTime %v, want %v", par, res.Metrics.GroupSpillTime, base.Metrics.GroupSpillTime)
				}
				noSpillFiles(t, cfg.SpillDir)
			}
		})
	}
}

// TestMapTaskBound: a reduce task numbers its sources in a uint16, so a job
// with a reducer and more map tasks than spill.MaxSources is refused before
// any task runs, with an error that names the limit; a map-only job is not
// bounded.
func TestMapTaskBound(t *testing.T) {
	input := make([]KV, spill.MaxSources+1)
	cfg := Config{Cluster: tinyCluster(), MapTasks: len(input)}
	_, err := newJobEnv(cfg, jobInput{kvs: input}, IdentityMapper, wcReducer{}, false)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(spill.MaxSources)) {
		t.Fatalf("a job of %d map tasks: %v, want an error naming the limit %d", len(input), err, spill.MaxSources)
	}
	if _, err := newJobEnv(cfg, jobInput{kvs: input}, IdentityMapper, nil, false); err != nil {
		t.Fatalf("map-only job of %d map tasks: %v", len(input), err)
	}
	cfg.MapTasks = spill.MaxSources
	if _, err := newJobEnv(cfg, jobInput{kvs: input}, IdentityMapper, wcReducer{}, false); err != nil {
		t.Fatalf("%d map tasks: %v", spill.MaxSources, err)
	}
}

// TestSpillFilesBoundedPerMapTask: a map task's spills all go to one file,
// held open on one descriptor, however often it spills. A 1 KiB budget
// makes four map tasks spill hundreds of times; during the reduce phase,
// while every map task's spilled partitions wait to be fetched, SpillDir
// holds at most one regular file per map task, and the process at most
// one descriptor more per map task — and a few of the runtime's own — than
// before the job. The descriptor check is skipped where /proc/self/fd
// cannot be read.
func TestSpillFilesBoundedPerMapTask(t *testing.T) {
	const mapTasks = 4
	input := make([]KV, 20000)
	for i := range input {
		input[i] = KV{Key: fmt.Sprintf("k%05d", i), Value: int64(i)}
	}
	w := &peakWatcher{dir: t.TempDir(), fdBase: -1}
	if n, err := openFDs(); err == nil {
		w.fdBase = n
	} else {
		t.Logf("descriptor check skipped: %v", err)
	}
	cfg := Config{Cluster: tinyCluster(), MapTasks: mapTasks, ReduceTasks: 4,
		MemoryBudgetBytes: 1 << 10, SpillDir: w.dir}
	res, err := Run(cfg, input, IdentityMapper, w)
	if err != nil {
		t.Fatal(err)
	}
	if runs := res.Counters.Get(CounterSpillRuns); runs < 100 {
		t.Fatalf("spill.runs = %d, want >= 100", runs)
	}
	t.Logf("%d spills; peaks: %d spill files, %d descriptors above %d", res.Counters.Get(CounterSpillRuns),
		w.files.Load(), w.fds.Load(), w.fdBase)
	if n := w.files.Load(); n == 0 || n > mapTasks {
		t.Fatalf("peak of %d spill files under SpillDir, want 1 to %d (one per map task)", n, mapTasks)
	}
	if n := w.fds.Load(); w.fdBase >= 0 && n > mapTasks+4 {
		t.Fatalf("peak of %d descriptors above the %d before the job, want <= %d", n, w.fdBase, mapTasks+4)
	}
	noSpillFiles(t, w.dir)
}

// peakWatcher is an identity reducer that samples, every 64th group, how
// many regular files are under dir and how many descriptors the process
// has open above fdBase (when fdBase >= 0), and keeps the peaks.
type peakWatcher struct {
	dir        string
	fdBase     int
	calls      atomic.Int64
	files, fds atomic.Int64
}

func (w *peakWatcher) Reduce(ctx *Context, key string, values []any) {
	if w.calls.Add(1)%64 == 1 {
		files := 0
		filepath.WalkDir(w.dir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				files++
			}
			return nil
		})
		storeMax(&w.files, int64(files))
		if n, err := openFDs(); err == nil && w.fdBase >= 0 {
			storeMax(&w.fds, int64(n-w.fdBase))
		}
	}
	for _, v := range values {
		ctx.Emit(key, v)
	}
}

// openFDs counts the process's open descriptors.
func openFDs() (int, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err
}

func storeMax(x *atomic.Int64, v int64) {
	for old := x.Load(); v > old && !x.CompareAndSwap(old, v); old = x.Load() {
	}
}
