package core

import (
	"runtime"
	"testing"

	"fsjoin/internal/dataset"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/partition"
)

// groupRecorder runs the filtering job's reducer and keeps every key group
// it is handed, per reduce task, for a replay outside the engine.
type groupRecorder struct {
	*filterReducer
	tasks map[int][]recordedGroup
}

type recordedGroup struct {
	key    string
	values []any
}

func (g *groupRecorder) Reduce(ctx *mapreduce.Context, key string, values []any) {
	g.tasks[ctx.TaskID] = append(g.tasks[ctx.TaskID], recordedGroup{key, append([]any(nil), values...)})
	g.filterReducer.Reduce(ctx, key, values)
}

// TestFilterReduceAllocationBudget bounds what the filtering reduce
// allocates per fragment once warm, on the shape of one serving job: 500
// Wiki records at θ 0.8 under the public defaults — 30 fragments × 21
// horizontal partitions, the Prefix kernel. The job's key groups are
// recorded from a real run, then every reduce task is replayed twice on
// one reducer, each as an attempt of its own; the second replay is
// measured: the segment copies, the kernel's workspace and the task's
// output records, which are most of it. The limit is the measured 1 202
// B/fragment + 25 %; a reducer and kernel that allocate their scratch per
// fragment measured 11 886.
func TestFilterReduceAllocationBudget(t *testing.T) {
	const limit = 1500 // B/fragment
	c := dataset.Generate(dataset.Wiki().Scale(0.1), 1)
	opt := Options{Theta: 0.8, PivotMethod: partition.EvenTF, VerticalPartitions: 30, HorizontalPivots: 10,
		JoinMethod: fragjoin.Prefix, LocalParallelism: 1}
	rec := &groupRecorder{tasks: map[int][]recordedGroup{}}
	if _, err := run(c, nil, opt, func(r *filterReducer) mapreduce.Reducer {
		rec.filterReducer = r
		return rec
	}); err != nil {
		t.Fatal(err)
	}
	r := &filterReducer{params: rec.params}
	replay := func() (fragments int) {
		for _, groups := range rec.tasks {
			ctx := &mapreduce.Context{}
			for _, g := range groups {
				r.Reduce(ctx, g.key, g.values)
			}
			r.Cleanup(ctx)
			fragments += len(groups)
		}
		return fragments
	}
	replay()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := replay()
	runtime.ReadMemStats(&m1)
	perFragment := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	t.Logf("filter reduce: %.0f B/fragment over %d fragments in %d tasks (limit %d)", perFragment, n, len(rec.tasks), limit)
	if perFragment > limit {
		t.Errorf("%.0f B allocated per fragment, limit %d", perFragment, limit)
	}
}
