package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fsjoin/internal/spill"
)

// checkFNV fails unless DefaultPartitioner routes key, of at most eight
// bytes, where hash/fnv's New32a modulo reducers does.
func checkFNV(t *testing.T, key []byte, reducers uint32) {
	t.Helper()
	h := fnv.New32a()
	h.Write(key)
	want := int(h.Sum32() % reducers)
	if got := DefaultPartitioner(spill.MakeKeyIndex(string(key), 0), int(reducers)); got != want {
		t.Fatalf("key %x over %d reducers: routed to %d, hash/fnv to %d", key, reducers, got, want)
	}
}

// FuzzPrefixPartition: routing a key by the prefix it is held in picks
// the reduce task hash/fnv's FNV-1a picks for its bytes, for every key of
// at most eight bytes and every reducer count.
func FuzzPrefixPartition(f *testing.F) {
	f.Add([]byte{}, uint32(1))
	f.Add([]byte{0}, uint32(3))
	f.Add([]byte(PairKey(7, 0)), uint32(30))
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0}, uint32(1<<31))
	f.Fuzz(func(t *testing.T, key []byte, reducers uint32) {
		if len(key) > spill.MaxKeyLen || reducers == 0 {
			t.Skip()
		}
		checkFNV(t, key, reducers)
	})
}

// TestDefaultPartitionerIsFNV: DefaultPartitioner is hash/fnv's New32a
// modulo reducers for keys of every length from 0 to 8 — random bytes,
// and every byte zero or 0xff — and reducer counts from 1 to 2^32-1.
func TestDefaultPartitionerIsFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for l := 0; l <= spill.MaxKeyLen; l++ {
		for n := 0; n < 200; n++ {
			key := make([]byte, l)
			switch n {
			case 0:
			case 1:
				for i := range key {
					key[i] = 0xff
				}
			default:
				rng.Read(key)
			}
			for _, reducers := range []uint32{1, 2, 3, 30, 1 << 31, math.MaxUint32} {
				checkFNV(t, key, reducers)
			}
		}
	}
}

// TestChainCustomPartitioner: a chained job with a Partitioner of its own
// hands it every record's key as its big-endian integer — keys of 4, 5
// and 8 bytes alike — and routes as it says, to what Run over the same
// records produces.
func TestChainCustomPartitioner(t *testing.T) {
	var input []KV
	for i := 0; i < 300; i++ {
		key := []string{U32Key(uint32(i % 40)), PairKey(uint32(i%13), 1), fmt.Sprintf("kk%03d", i%17)}[i%3]
		input = append(input, KV{Key: key, Value: int64(i)})
	}
	var mu sync.Mutex
	var seen []uint64
	cfg := Config{Cluster: tinyCluster(), MapTasks: 3, ReduceTasks: 4, Parallelism: 2, Combiner: foldSum{},
		Partitioner: func(key uint64, reducers int) int {
			mu.Lock()
			seen = append(seen, key)
			mu.Unlock()
			return int((key>>32 ^ key) % uint64(reducers))
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
	want := make([]uint64, len(input))
	for i, kv := range input {
		want[i] = spill.MakeKeyIndex(kv.Key, 0).Prefix
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
