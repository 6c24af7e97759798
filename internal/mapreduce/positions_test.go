package mapreduce

import (
	"fmt"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestSharedPositions: every task of every job takes its units from one
// ascending array of the process's. Handed out concurrently in any order
// of lengths, each prefix reads 0..n-1 and has no room to append into; and
// a job whose reduce tasks hold very different numbers of groups, run four
// at a time, reduces every group once. Run it with -race: a task writing
// an array another task reads fails there.
func TestSharedPositions(t *testing.T) {
	got := make([][]int32, 64)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = positions(i * 37 % 500)
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if n := i * 37 % 500; len(p) != n || cap(p) != n {
			t.Fatalf("positions(%d): len %d cap %d", n, len(p), cap(p))
		}
		for k, v := range p {
			if v != int32(k) {
				t.Fatalf("positions(%d)[%d] = %d", len(p), k, v)
			}
		}
	}

	// Key wI goes to reduce task bits.Len(I) mod 8: tasks of 1 to 257
	// groups.
	var lines []string
	want := map[string]int64{}
	for i := 0; i < 400; i++ {
		w := fmt.Sprintf("w%d", i)
		lines = append(lines, strings.Repeat(w+" ", i%3+1))
		want[w] = int64(i%3 + 1)
	}
	cfg := Config{Name: "skewed", Cluster: tinyCluster(), MapTasks: 4, ReduceTasks: 8,
		Partitioner: func(key uint64, reducers int) int {
			i, _ := strconv.Atoi(unpad(key)[1:])
			return bits.Len(uint(i)) % reducers
		}}
	for _, par := range []int{1, 4} {
		cfg.Parallelism = par
		if out := runWC(t, cfg, wcInput(lines...)); !reflect.DeepEqual(out, want) {
			t.Fatalf("parallelism %d: %d keys reduced, want %d, or counts differ", par, len(out), len(want))
		}
	}
}

// TestPositionsOutliveJobs: the positions array is the process's, not a
// job's, so a second chained job of the size of the first allocates no
// positions array: the one the first job grew is still the one handed out.
func TestPositionsOutliveJobs(t *testing.T) {
	const n = 300_000 // more units than any other test asks for
	input := make([]KV, n)
	for i := range input {
		input[i] = KV{Key: PairKey(uint32(i%900), uint32(i%7)), Value: int64(1)}
	}
	run := func() {
		p := NewPipeline("positions", tinyCluster())
		fed, err := p.Feed(Config{Name: "emit", MemoryBudgetBytes: -1}, input, IdentityMapper, nil)
		if err == nil {
			_, err = p.Chain(Config{Name: "sum", MemoryBudgetBytes: -1, Combiner: groupSum{}}, fed, groupSum{})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	shared := func() *int32 {
		posMu.Lock()
		defer posMu.Unlock()
		return unsafe.SliceData(pos)
	}
	run()
	first := shared()
	if len(positions(n)) != n {
		t.Fatalf("positions(%d) has another length", n)
	}
	run()
	if shared() != first {
		t.Fatal("the second job of the same size allocated a positions array")
	}
	if allocs := testing.AllocsPerRun(10, func() { positions(n) }); allocs != 0 {
		t.Fatalf("positions(%d) allocated %.0f times once an array that long existed", n, allocs)
	}
}
