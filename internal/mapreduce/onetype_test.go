package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fsjoin/internal/spill"
)

// TestJobHoldsOneType: a pipeline job fails — with spill.ErrMixedValues
// for values of two types in one partition, emitted by one map task or by
// two, and spill.ErrNoCodec for a value of no registered type or a nil —
// unbounded, where nothing spills, and under a budget that spills, and
// leaves no spill file behind.
func TestJobHoldsOneType(t *testing.T) {
	input := budgetInput(8, 20, 30)
	for _, tc := range []struct {
		name string
		emit func(ctx *Context, line int, word string)
		want error
	}{
		{"two types in a partition", func(ctx *Context, line int, w string) {
			ctx.Emit(w, int64(line))
			if line == 7 {
				ctx.Emit(w, "a string among the counts")
			}
		}, spill.ErrMixedValues},
		{"two types across map tasks", func(ctx *Context, line int, w string) {
			if line < 4 {
				ctx.Emit(w, int64(line))
			} else {
				ctx.Emit(w, uint32(line))
			}
		}, spill.ErrMixedValues},
		{"unregistered", func(ctx *Context, _ int, w string) { ctx.Emit(w, opaque{n: 1}) }, spill.ErrNoCodec},
		{"nil", func(ctx *Context, _ int, w string) { ctx.Emit(w, nil) }, spill.ErrNoCodec},
	} {
		for _, budget := range []int64{-1, 256} {
			t.Run(fmt.Sprintf("%s/budget=%d", tc.name, budget), func(t *testing.T) {
				mapper := MapFunc(func(ctx *Context, kv KV) {
					var line int
					fmt.Sscan(kv.Key, &line)
					for _, w := range strings.Fields(kv.Value.(string)) {
						tc.emit(ctx, line, w)
					}
				})
				p := NewPipeline("one-type", tinyCluster())
				p.SpillDir, p.MemoryBudgetBytes = t.TempDir(), budget
				_, err := p.Run(Config{Name: "emit", MapTasks: 2, ReduceTasks: 1}, input, mapper, ReduceFunc(func(*Context, string, []any) {}))
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				noSpillFiles(t, p.SpillDir)
			})
		}
	}
}

// TestReduceFetchTimed: a job's metrics time every reduce task's fetch and
// grouping, one entry per reduce task, above zero for each task that had
// input — in memory and spilled.
func TestReduceFetchTimed(t *testing.T) {
	for _, budget := range []int64{-1, 256} {
		res, err := Run(Config{Cluster: tinyCluster(), MapTasks: 3, ReduceTasks: 5, MemoryBudgetBytes: budget, SpillDir: t.TempDir()},
			budgetInput(12, 20, 40), wcMapper{}, wcReducer{})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if len(m.ReduceFetchTime) != m.ReduceTasks {
			t.Fatalf("budget %d: %d fetch times for %d reduce tasks", budget, len(m.ReduceFetchTime), m.ReduceTasks)
		}
		for r, d := range m.ReduceFetchTime {
			if m.PerReduceRecords[r] > 0 && d <= 0 {
				t.Errorf("budget %d: reduce task %d fetched %d records in %v", budget, r, m.PerReduceRecords[r], d)
			}
		}
	}
}
