package mapreduce

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func tinyCluster() *Cluster {
	cl := DefaultCluster()
	cl.Nodes = 2
	return cl
}

// wordcount pieces used across tests.
type wcMapper struct{}

func (wcMapper) Map(ctx *Context, kv KV) {
	for _, w := range strings.Fields(kv.Value.(string)) {
		ctx.Emit(w, int64(1))
	}
}

type wcReducer struct{}

func (wcReducer) Reduce(ctx *Context, key string, values []any) {
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	ctx.Emit(key, n)
}

// Fold makes wcReducer a combiner: the same sum, one value at a time.
func (wcReducer) Fold(acc, v any) any { return acc.(int64) + v.(int64) }

func wcInput(lines ...string) []KV {
	kvs := make([]KV, len(lines))
	for i, l := range lines {
		kvs[i] = KV{Key: fmt.Sprint(i), Value: l}
	}
	return kvs
}

func runWC(t *testing.T, cfg Config, input []KV) map[string]int64 {
	t.Helper()
	res, err := Run(cfg, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, kv := range res.Output {
		out[kv.Key] = kv.Value.(int64)
	}
	return out
}

func TestWordCount(t *testing.T) {
	got := runWC(t, Config{Name: "wc", Cluster: tinyCluster()},
		wcInput("a b a", "b c", "a"))
	want := map[string]int64{"a": 3, "b": 2, "c": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	got := runWC(t, Config{Name: "wc", Cluster: tinyCluster(), Combiner: wcReducer{}},
		wcInput("a b a", "b c", "a a a"))
	want := map[string]int64{"a": 5, "b": 2, "c": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	input := wcInput("a a a a a a a a", "a a a a a a a a")
	plain, err := Run(Config{Cluster: tinyCluster()}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(Config{Cluster: tinyCluster(), Combiner: wcReducer{}}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if combined.Metrics.ShuffleRecords >= plain.Metrics.ShuffleRecords {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d",
			combined.Metrics.ShuffleRecords, plain.Metrics.ShuffleRecords)
	}
	if plain.Metrics.ShuffleRecords != 16 {
		t.Fatalf("plain shuffle records = %d, want 16", plain.Metrics.ShuffleRecords)
	}
}

func TestMapOnlyJob(t *testing.T) {
	res, err := Run(Config{Cluster: tinyCluster()}, wcInput("x y"), wcMapper{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 {
		t.Fatalf("map-only output = %d records", len(res.Output))
	}
	if res.Metrics.ReduceTasks != 0 {
		t.Fatalf("map-only job reports %d reduce tasks", res.Metrics.ReduceTasks)
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	input := wcInput("d c b a", "a b c d", "d d a")
	var first []KV
	for i := 0; i < 5; i++ {
		res, err := Run(Config{Cluster: tinyCluster()}, input, wcMapper{}, wcReducer{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Output
			continue
		}
		if !reflect.DeepEqual(res.Output, first) {
			t.Fatalf("run %d produced different output order", i)
		}
	}
}

func TestKeysSortedWithinReducer(t *testing.T) {
	// With one reducer, output keys must be globally sorted.
	res, err := Run(Config{Cluster: tinyCluster(), ReduceTasks: 1},
		wcInput("zeta alpha mid", "beta omega"), wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i-1].Key > res.Output[i].Key {
			t.Fatalf("keys not sorted: %q > %q", res.Output[i-1].Key, res.Output[i].Key)
		}
	}
}

func TestCustomPartitioner(t *testing.T) {
	part := func(key uint64, n int) int { return 0 } // everything to reducer 0
	res, err := Run(Config{Cluster: tinyCluster(), Partitioner: part, ReduceTasks: 4},
		wcInput("a b c d e"), wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PerReduceRecords[0] != 5 {
		t.Fatalf("reducer 0 got %d records", res.Metrics.PerReduceRecords[0])
	}
	for i := 1; i < 4; i++ {
		if res.Metrics.PerReduceRecords[i] != 0 {
			t.Fatalf("reducer %d got records", i)
		}
	}
	if li := res.Metrics.LoadImbalance(); li != 4.0 {
		t.Fatalf("LoadImbalance = %v, want 4.0", li)
	}
}

func TestBadPartitionerRejected(t *testing.T) {
	part := func(key uint64, n int) int { return n } // out of range
	if _, err := Run(Config{Cluster: tinyCluster(), Partitioner: part},
		wcInput("a"), wcMapper{}, wcReducer{}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestNilMapperRejected(t *testing.T) {
	if _, err := Run(Config{}, nil, nil, wcReducer{}); err == nil {
		t.Fatal("nil mapper accepted")
	}
}

// TestMapOnlyCombinerRejected: the engine, like Hadoop, runs no combiner
// on a map-only job, so configuring one is a mistake Run reports.
func TestMapOnlyCombinerRejected(t *testing.T) {
	_, err := Run(Config{Name: "mo", Cluster: tinyCluster(), Combiner: wcReducer{}}, wcInput("a a"), wcMapper{}, nil)
	if err == nil || !strings.Contains(err.Error(), "map-only") {
		t.Fatalf("err = %v, want the map-only combiner rejection", err)
	}
}

func TestCounters(t *testing.T) {
	mapper := MapFunc(func(ctx *Context, kv KV) {
		ctx.Inc("seen", 1)
		ctx.Emit(kv.Key, kv.Value)
	})
	res, err := Run(Config{Cluster: tinyCluster()}, wcInput("a", "b", "c"), mapper, FirstValue{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get("seen"); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

// lifecycleRecorder checks Setup/Cleanup ordering per task.
type lifecycleRecorder struct {
	events *[]string
}

func (l lifecycleRecorder) Setup(ctx *Context)      { *l.events = append(*l.events, "setup") }
func (l lifecycleRecorder) Cleanup(ctx *Context)    { *l.events = append(*l.events, "cleanup") }
func (l lifecycleRecorder) Map(ctx *Context, kv KV) { *l.events = append(*l.events, "map") }

func TestMapperLifecycleHooks(t *testing.T) {
	var events []string
	_, err := Run(Config{Cluster: tinyCluster(), MapTasks: 1},
		wcInput("x", "y"), lifecycleRecorder{&events}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"setup", "map", "map", "cleanup"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

// TestFoldingReducerEquivalence: a FoldingReducer job produces exactly what
// the plain Reduce path produces.
func TestFoldingReducerEquivalence(t *testing.T) {
	input := wcInput("a b a c", "c c b", "a a")
	folded, err := Run(Config{Cluster: tinyCluster()}, input, wcMapper{}, foldingWC{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(Config{Cluster: tinyCluster()}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(folded.Output, plain.Output) {
		t.Fatalf("fold path diverges: %v vs %v", folded.Output, plain.Output)
	}
}

// foldingWC is wcReducer on the FoldingReducer path.
type foldingWC struct{ wcReducer }

func (foldingWC) FinishFold(ctx *Context, key string, acc any) { ctx.Emit(key, acc) }

// TestSplitInputProperty: splits cover the input exactly, in order.
func TestSplitInputProperty(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		in := make([]KV, int(n))
		for i := range in {
			in[i] = KV{Key: fmt.Sprint(i)}
		}
		p := int(parts%16) + 1
		splits := splitInput(in, p)
		if len(splits) != p {
			return false
		}
		var joined []KV
		for _, s := range splits {
			joined = append(joined, s...)
		}
		if len(joined) != len(in) {
			return false
		}
		for i := range joined {
			if joined[i].Key != in[i].Key {
				return false
			}
		}
		// Near-equal sizes: max-min ≤ 1.
		min, max := len(in), 0
		for _, s := range splits {
			if len(s) < min {
				min = len(s)
			}
			if len(s) > max {
				max = len(s)
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	res, err := Run(Config{Cluster: tinyCluster()}, wcInput("a b", "c"), wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.MapInputRecords != 2 {
		t.Errorf("MapInputRecords = %d", m.MapInputRecords)
	}
	if m.ShuffleRecords != 3 {
		t.Errorf("ShuffleRecords = %d", m.ShuffleRecords)
	}
	if m.OutputRecords != 3 {
		t.Errorf("OutputRecords = %d", m.OutputRecords)
	}
	var perReduce int64
	for _, n := range m.PerReduceRecords {
		perReduce += n
	}
	if perReduce != m.ShuffleRecords {
		t.Errorf("per-reduce records %d != shuffle %d", perReduce, m.ShuffleRecords)
	}
	if m.SimulatedTotalTime <= 0 {
		t.Error("no simulated time")
	}
}
