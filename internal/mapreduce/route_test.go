package mapreduce

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fsjoin/internal/spill"
)

// FuzzPrefixPartition: routing a key of at most eight bytes by the prefix
// it is held in picks the reduce task DefaultPartitioner picks for its
// string, for every reducer count.
func FuzzPrefixPartition(f *testing.F) {
	f.Add([]byte{}, uint32(1))
	f.Add([]byte{0}, uint32(3))
	f.Add([]byte(PairKey(7, 0)), uint32(30))
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0}, uint32(1<<31))
	f.Fuzz(func(t *testing.T, key []byte, reducers uint32) {
		if len(key) > 8 || reducers == 0 {
			t.Skip()
		}
		k := spill.MakeKeyIndex(string(key), 0)
		if got, want := prefixPartition(k, int(reducers)), DefaultPartitioner(string(key), int(reducers)); got != want {
			t.Fatalf("key %x over %d reducers: prefix routes to %d, the string to %d", key, reducers, got, want)
		}
	})
}

// TestChainCustomPartitioner: a chained job with a Partitioner of its own
// hands it every record's key as a string — short and long keys alike —
// and routes as it says, to what Run over the same records produces.
func TestChainCustomPartitioner(t *testing.T) {
	var input []KV
	for i := 0; i < 300; i++ {
		key := []string{U32Key(uint32(i % 40)), PairKey(uint32(i%13), 1), fmt.Sprintf("a-long-key-%03d", i%17)}[i%3]
		input = append(input, KV{Key: key, Value: int64(i)})
	}
	var mu sync.Mutex
	var seen []string
	cfg := Config{Cluster: tinyCluster(), MapTasks: 3, ReduceTasks: 4, Parallelism: 2, Combiner: foldSum{},
		Partitioner: func(key string, reducers int) int {
			mu.Lock()
			seen = append(seen, key)
			mu.Unlock()
			return int(key[len(key)-1]) % reducers
		}}
	p := NewPipeline("custom", tinyCluster())
	fed, err := p.Feed(Config{Cluster: tinyCluster(), MapTasks: 2}, input, IdentityMapper, nil)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := p.Chain(cfg, fed, foldSum{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(input))
	for i, kv := range input {
		want[i] = kv.Key
	}
	slices.Sort(seen)
	slices.Sort(want)
	if !slices.Equal(seen, want) {
		t.Fatalf("the partitioner saw %d keys, want the %d emitted", len(seen), len(want))
	}
	run, err := Run(cfg, input, IdentityMapper, foldSum{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chained.Output, run.Output) || !reflect.DeepEqual(chained.Metrics.PerReduceRecords, run.Metrics.PerReduceRecords) {
		t.Fatalf("chained output %v over %v, Run's %v over %v",
			chained.Output, chained.Metrics.PerReduceRecords, run.Output, run.Metrics.PerReduceRecords)
	}
	for r, n := range run.Metrics.PerReduceRecords {
		if n == 0 {
			t.Errorf("reduce task %d received nothing: the partitioner was not followed", r)
		}
	}
}
