package mapreduce

import (
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
		MapTasks, ReduceTasks                             int
		MapInputRecords, MapOutputRecords, MapOutputBytes int64
		ShuffleRecords, ShuffleBytes                      int64
		ReduceInputGroups, OutputRecords, OutputBytes     int64
		PerReduceRecords, PerReduceBytes                  []int64
		LoadImbalance                                     float64
	}
	extract := func(m *Metrics) det {
		return det{
			MapTasks: m.MapTasks, ReduceTasks: m.ReduceTasks,
			MapInputRecords: m.MapInputRecords, MapOutputRecords: m.MapOutputRecords,
			MapOutputBytes: m.MapOutputBytes, ShuffleRecords: m.ShuffleRecords,
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
