package mapreduce

import (
	"fmt"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSharedPositions: every task of a job takes its units from one
// ascending array of the job's. Handed out concurrently in any order of
// lengths, each prefix reads 0..n-1 and has no room to append into; and a
// job whose reduce tasks hold very different numbers of groups, run four
// at a time, reduces every group once. Run it with -race: a task writing
// an array another task reads fails there.
func TestSharedPositions(t *testing.T) {
	env := &jobEnv{}
	got := make([][]int32, 64)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = env.positions(i * 37 % 500)
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
		Partitioner: func(key string, reducers int) int {
			i, _ := strconv.Atoi(key[1:])
			return bits.Len(uint(i)) % reducers
		}}
	for _, par := range []int{1, 4} {
		cfg.Parallelism = par
		if out := runWC(t, cfg, wcInput(lines...)); !reflect.DeepEqual(out, want) {
			t.Fatalf("parallelism %d: %d keys reduced, want %d, or counts differ", par, len(out), len(want))
		}
	}
}
