package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestParallelMatchesSequential: any parallelism level produces exactly the
// sequential output (per-task output slots assemble in task order).
func TestParallelMatchesSequential(t *testing.T) {
	input := wcInput("a b a c d", "d e f a", "b b c", "x y z a")
	want, err := Run(Config{Cluster: tinyCluster()}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		got, err := Run(Config{Cluster: tinyCluster(), Parallelism: par}, input, wcMapper{}, wcReducer{})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Fatalf("parallelism %d output differs", par)
		}
		if got.Counters.Get("seen") != want.Counters.Get("seen") {
			t.Fatalf("parallelism %d counters differ", par)
		}
		if got.Metrics.ShuffleRecords != want.Metrics.ShuffleRecords {
			t.Fatalf("parallelism %d metrics differ", par)
		}
	}
}

// countingWCMapper is wcMapper plus a user counter, so counter equivalence
// is meaningful in the property test below. Stateless, concurrency-safe.
var countingWCMapper = MapFunc(func(ctx *Context, kv KV) {
	words := strings.Fields(kv.Value.(string))
	ctx.Inc("words.mapped", int64(len(words)))
	for _, w := range words {
		ctx.Emit(w, int64(1))
	}
})

// sameMetrics compares every deterministic metric field (timings and the
// simulated makespan derived from them are wall-clock-based and excluded).
func sameMetrics(t *testing.T, label string, got, want *Metrics) {
	t.Helper()
	type det struct {
		MapTasks, ReduceTasks                         int
		MapInputRecords                               int64
		ShuffleRecords, ShuffleBytes                  int64
		ReduceInputGroups, OutputRecords, OutputBytes int64
		PerReduceRecords, PerReduceBytes              []int64
		LoadImbalance                                 float64
	}
	extract := func(m *Metrics) det {
		return det{
			MapTasks: m.MapTasks, ReduceTasks: m.ReduceTasks,
			MapInputRecords: m.MapInputRecords, ShuffleRecords: m.ShuffleRecords,
			ShuffleBytes: m.ShuffleBytes, ReduceInputGroups: m.ReduceInputGroups,
			OutputRecords: m.OutputRecords, OutputBytes: m.OutputBytes,
			PerReduceRecords: m.PerReduceRecords, PerReduceBytes: m.PerReduceBytes,
			LoadImbalance: m.LoadImbalance(),
		}
	}
	if g, w := extract(got), extract(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: metrics differ\n got %+v\nwant %+v", label, g, w)
	}
}

// TestParallelEquivalenceProperty: over random inputs, task counts and job
// shapes (with or without a combiner; plain or folding reducer), every
// parallelism level — including AutoParallelism — must reproduce the
// sequential run's Output, counters and shuffle metrics byte-for-byte.
func TestParallelEquivalenceProperty(t *testing.T) {
	f := func(seed uint32, combinerKind, reducerKind uint8, taskSeed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		lines := make([]string, 1+rng.Intn(12))
		for i := range lines {
			words := make([]string, rng.Intn(24))
			for w := range words {
				words[w] = string(rune('a' + rng.Intn(9)))
			}
			lines[i] = strings.Join(words, " ")
		}
		cfg := Config{
			Cluster:     tinyCluster(),
			MapTasks:    1 + int(taskSeed%5),
			ReduceTasks: 1 + int(taskSeed%7),
		}
		if combinerKind%2 == 1 {
			cfg.Combiner = wcReducer{} // folds at Emit time
		}
		var reducer Reducer = wcReducer{}
		if reducerKind%2 == 1 {
			reducer = foldingWC{} // FoldingReducer fast path
		}
		input := wcInput(lines...)
		want, err := Run(cfg, input, countingWCMapper, reducer)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 16, AutoParallelism} {
			pcfg := cfg
			pcfg.Parallelism = par
			got, err := Run(pcfg, input, countingWCMapper, reducer)
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Fatalf("parallelism %d: output differs", par)
			}
			if !reflect.DeepEqual(got.Counters.Snapshot(), want.Counters.Snapshot()) {
				t.Fatalf("parallelism %d: counters differ: %v vs %v",
					par, got.Counters.Snapshot(), want.Counters.Snapshot())
			}
			sameMetrics(t, "parallel-equivalence", &got.Metrics, &want.Metrics)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// alwaysPanic is a stateless (concurrency-safe) permanently failing mapper.
type alwaysPanic struct{}

func (alwaysPanic) Map(ctx *Context, kv KV) { panic("permanent failure") }

func TestParallelPropagatesErrors(t *testing.T) {
	_, err := Run(Config{Cluster: tinyCluster(), Parallelism: 4, Fault: FaultPolicy{MaxAttempts: 2}, MapTasks: 4},
		wcInput("a", "b", "c", "d"), alwaysPanic{}, wcReducer{})
	if err == nil {
		t.Fatal("parallel phase swallowed the error")
	}
}

func TestRunPhaseProperty(t *testing.T) {
	// RunPhase must call work exactly once per index, any parallelism.
	f := func(n, par uint8) bool {
		count := int(n % 40)
		seen := make([]int, count)
		var mu chan struct{} = make(chan struct{}, 1)
		err := RunPhase(int(par%8), count, func(t int) error {
			mu <- struct{}{}
			seen[t]++
			<-mu
			return nil
		})
		if err != nil {
			return false
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// lineCountingWC is wordcount that also counts its input lines, so a user
// counter travels with every map task.
type lineCountingWC struct{ wcMapper }

func (m lineCountingWC) Map(ctx *Context, kv KV) {
	ctx.Inc("wc.lines", 1)
	m.wcMapper.Map(ctx, kv)
}

// TestParallelResultMatchesSerial proves the one driver end to end: whether
// the job runs one task at a time or three, the Result assembled from the
// per-task slots is the same in output, in counters and in every metric
// that is not a measured duration — for reducing, folding and map-only
// jobs, with and without spilling.
func TestParallelResultMatchesSerial(t *testing.T) {
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("d%d x y shared d%d u%d", i%9, i%4, i))
	}
	input := wcInput(lines...)
	jobs := []struct {
		name     string
		combiner Folder
		reducer  Reducer
	}{
		{"plain", nil, wcReducer{}},
		{"folding", foldSum{}, foldSum{}},
		{"map-only", nil, nil},
	}
	// untimed blanks the metrics that are, or derive from, measured task
	// durations.
	untimed := func(m Metrics) Metrics {
		m.MapTaskTime, m.ReduceTaskTime, m.ReduceFetchTime = nil, nil, nil
		m.SimulatedMapTime, m.SimulatedReduce, m.SimulatedTotalTime, m.WallTime = 0, 0, 0, 0
		return m
	}
	for _, job := range jobs {
		for _, budget := range []int64{-1, 1024} {
			t.Run(fmt.Sprintf("%s/budget=%d", job.name, budget), func(t *testing.T) {
				run := func(par int) *Result {
					cfg := Config{Name: "wc-local", Cluster: tinyCluster(), MapTasks: 4, Parallelism: par,
						Combiner: job.combiner, MemoryBudgetBytes: budget, SpillDir: t.TempDir()}
					res, err := Run(cfg, input, lineCountingWC{}, job.reducer)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial, par := run(1), run(3)
				if !reflect.DeepEqual(serial.Output, par.Output) {
					t.Fatalf("parallel output differs from serial: %d vs %d records", len(par.Output), len(serial.Output))
				}
				if sc, pc := serial.Counters.Snapshot(), par.Counters.Snapshot(); !reflect.DeepEqual(sc, pc) {
					t.Fatalf("counters differ:\nserial   %v\nparallel %v", sc, pc)
				}
				if sm, pm := untimed(serial.Metrics), untimed(par.Metrics); !reflect.DeepEqual(sm, pm) {
					t.Fatalf("metrics differ:\nserial   %+v\nparallel %+v", sm, pm)
				}
				if len(par.Metrics.MapTaskTime) != 4 || len(par.Metrics.ReduceTaskTime) != par.Metrics.ReduceTasks {
					t.Fatalf("task times: %d map, %d reduce", len(par.Metrics.MapTaskTime), len(par.Metrics.ReduceTaskTime))
				}
				if got := serial.Counters.Get("wc.lines"); got != int64(len(lines)) {
					t.Fatalf("wc.lines = %d, want %d", got, len(lines))
				}
				if spilled := serial.Counters.Get(CounterSpillRuns) > 0; spilled != (budget > 0 && job.reducer != nil) {
					t.Fatalf("budget %d: spill.runs = %d", budget, serial.Counters.Get(CounterSpillRuns))
				}
			})
		}
	}
}
