package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// u32Input is n records under four-byte keys, key i%domain, valued 1000+i.
func u32Input(n, domain int) []KV {
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: U32Key(uint32(i % domain)), Value: int64(1000 + i)}
	}
	return kvs
}

// TestConsumedResultRefused: a Feed result has one reader. Once a Chain or
// an EachU32 has consumed it, a second Chain or EachU32 of it is an error
// naming the job that fed it, and reads nothing; a Run result, which holds
// its output in Output, is never consumed.
func TestConsumedResultRefused(t *testing.T) {
	p := NewPipeline("consume", tinyCluster())
	feed := func(name string) *Result {
		t.Helper()
		fed, err := p.Feed(Config{Name: name, MapTasks: 2}, u32Input(300, 40), IdentityMapper, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}
	refused := func(how string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `job "counts"`) {
			t.Fatalf("%s of a consumed result: err %v, want an error naming job \"counts\"", how, err)
		}
	}
	each := func(res *Result) (int, error) {
		n := 0
		_, err := EachU32(res, func(uint32, int64) { n++ })
		return n, err
	}
	for _, first := range []string{"Chain", "EachU32"} {
		fed := feed("counts")
		if first == "Chain" {
			res, err := p.Chain(Config{Name: "dedup", ReduceTasks: 3}, fed, FirstValue{})
			if err != nil || len(res.Output) != 40 {
				t.Fatalf("the first Chain: err %v, %d records", err, len(res.Output))
			}
		} else if n, err := each(fed); err != nil || n != 300 {
			t.Fatalf("the first EachU32: err %v, %d records", err, n)
		}
		_, err := p.Chain(Config{Name: "again", ReduceTasks: 3}, fed, FirstValue{})
		refused(first+" then Chain", err)
		n, err := each(fed)
		refused(first+" then EachU32", err)
		if n != 0 {
			t.Fatalf("%s then EachU32 read %d records of a consumed result", first, n)
		}
	}

	ran, err := p.Run(Config{Name: "counts", MapTasks: 2}, u32Input(300, 40), IdentityMapper, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if typed, err := EachU32(ran, func(uint32, int64) {}); typed || err != nil {
			t.Fatalf("EachU32 of a Run result: %v, %v; want false, nil every time", typed, err)
		}
	}
}

// TestChainReleaseReusedInvisibly: Chain gives its fed stage's columns back
// once its map tasks have copied them, a reduce task gives back its groups'
// arrays once it has committed, a map task its fold tables, and a Run job
// its task columns once they are boxed into Output; other jobs grow into
// all of them at once. Two pipelines at parallelism 4, each a map-only
// Feed chained into a folding job with a combiner and into a plain one,
// run side by side three rounds over, in memory and under a 1 KiB budget,
// each taking what the other gave back: every chained output must be the
// one the same chain gives run alone. Under -race, a chunk written by one
// job while another still reads it is a report.
func TestChainReleaseReusedInvisibly(t *testing.T) {
	input := func(seed int64) []KV {
		kvs := make([]KV, 6000)
		for i := range kvs {
			kvs[i] = KV{Key: PairKey(uint32(i%700), uint32(i%3)), Value: seed + int64(i)}
		}
		return kvs
	}
	for _, budget := range []int64{-1, 1 << 10} {
		chained := func(t *testing.T, seed int64) ([][]KV, error) {
			p := NewPipeline("reuse", tinyCluster())
			p.Parallelism, p.MemoryBudgetBytes, p.SpillDir = 4, budget, t.TempDir()
			var outs [][]KV
			for _, tc := range []struct {
				combiner Folder
				reducer  Reducer
			}{{groupSum{}, groupSum{}}, {nil, plainSum{}}} {
				fed, err := p.Feed(Config{Name: "emit", MapTasks: 4}, input(seed), IdentityMapper, nil)
				if err != nil {
					return nil, err
				}
				res, err := p.Chain(Config{Name: "sum", MapTasks: 4, ReduceTasks: 5, Combiner: tc.combiner}, fed, tc.reducer)
				if err != nil {
					return nil, err
				}
				outs = append(outs, res.Output)
			}
			return outs, nil
		}
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			seeds := []int64{1000, 5_000_000}
			want := make([][][]KV, len(seeds))
			for i, seed := range seeds {
				var err error
				if want[i], err = chained(t, seed); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for i, seed := range seeds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						got, err := chained(t, seed)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, want[i]) {
							t.Errorf("seed %d, round %d beside another pipeline: the chained output differs from a run alone", seed, round)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestChainAllocationBudget: a chained pipeline — a map-only Feed of n
// int64 values under pair keys, chained into the fold job of
// TestShuffleAllocationBudget's chain-group row — measured whole, both
// jobs. Chain gives the fed columns back once its map tasks have copied
// them, the reduce tasks give back their groups and the map tasks their
// fold tables, so the measured pipeline grows into what the warm-up gave
// back. On a two-core x86-64 host it measured 22 to 24 B/record; while
// nothing of the fed columns, groups or fold tables went back, 97 to 98.
func TestChainAllocationBudget(t *testing.T) {
	const n, limit = 120_000, 32
	input := make([]KV, n)
	for i := range input {
		input[i] = KV{Key: PairKey(uint32(i%4000), uint32(i%7)), Value: int64(1000 + i)}
	}
	cl := DefaultCluster()
	run := func() {
		p := NewPipeline("budget", cl)
		fed, err := p.Feed(Config{MemoryBudgetBytes: -1}, input, IdentityMapper, nil)
		if err == nil {
			_, err = p.Chain(Config{ReduceTasks: 30, MemoryBudgetBytes: -1, Combiner: groupSum{}}, fed, groupSum{})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up: codec registries, pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	perRecord := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("feed+chain: %.0f B/record (limit %d)", perRecord, limit)
	if perRecord > limit {
		t.Errorf("feed+chain: %.0f B allocated per record, limit %d", perRecord, limit)
	}
}
