package core

import (
	"runtime"
	"slices"
	"testing"

	"fsjoin/internal/dataset"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/partition"
	"fsjoin/internal/rsinput"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
)

// groupRecorder runs the filtering job's reducer and keeps every key group
// it is handed, per reduce task, for a replay outside the engine.
type groupRecorder struct {
	*filterReducer
	tasks map[int][]recordedGroup
}

type recordedGroup struct {
	key  string
	segs []fragjoin.Seg // tokens copied out of the groups
}

func (r *groupRecorder) FinishGroup(ctx *mapreduce.Context, g *spill.Groups, i int) {
	segs := spill.AppendGroupValues[fragjoin.Seg](nil, g, i)
	for j := range segs {
		segs[j].Tokens = slices.Clone(segs[j].Tokens)
	}
	r.tasks[ctx.TaskID] = append(r.tasks[ctx.TaskID], recordedGroup{g.Key(i, spill.NewKeyArena(1)), segs})
	r.filterReducer.FinishGroup(ctx, g, i)
}

// grouped returns each recorded task's fragments cut into groups, as the
// engine hands them to FinishGroup: the segments in a tailed column.
func (r *groupRecorder) grouped(t *testing.T) []*spill.Groups {
	var out []*spill.Groups
	for _, groups := range r.tasks {
		var recs spill.Records
		for _, g := range groups {
			for _, seg := range g.segs {
				recs.Append(g.key, seg, 1)
			}
		}
		gs, err := spill.Group([]spill.Source{{Recs: &recs, Hi: recs.Len()}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gs.Len() != len(groups) {
			t.Fatalf("%d fragments regrouped into %d", len(groups), gs.Len())
		}
		out = append(out, gs)
	}
	return out
}

// TestFilterReduceAllocationBudget bounds what the filtering reduce
// allocates per fragment once warm, on the shape of one serving job: 500
// Wiki records at θ 0.8 under the public defaults — 30 fragments × 21
// horizontal partitions, the Prefix kernel. The job's key groups are
// recorded from a real run and cut into groups again, as the engine hands
// them over, then every reduce task is replayed twice on one reducer
// through FinishGroup, each as an attempt of its own; the second replay
// is measured: the segments read out of the groups, the kernel's
// workspace and the task's output records, which are most of it. The
// limit is 1 202 B/fragment, measured through Reduce, + 25 %; through
// FinishGroup it measures 1 140, and a reducer and kernel that allocate
// their scratch per fragment measured 11 886.
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
	tasks := rec.grouped(t)
	replay := func() (fragments int) {
		for _, g := range tasks {
			ctx := &mapreduce.Context{}
			for i := 0; i < g.Len(); i++ {
				r.FinishGroup(ctx, g, i)
			}
			r.Cleanup(ctx)
			fragments += g.Len()
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

// countedMapper runs the filtering job's mapper and counts, over whole map
// tasks, the heap allocations they make and the segments they emit.
type countedMapper struct {
	*filterMapper
	m0               runtime.MemStats
	mallocs, emitted uint64
}

func (m *countedMapper) Setup(*mapreduce.Context) { runtime.ReadMemStats(&m.m0) }

func (m *countedMapper) Map(ctx *mapreduce.Context, kv mapreduce.KV) {
	m.filterMapper.Map(ctx, kv)
	if kv.Value.(rsinput.Record).Rec.Len() > 0 {
		s := ctx.Local.(*mapScratch)
		m.emitted += uint64(len(s.segs) * len(s.asgs))
	}
}

func (m *countedMapper) Cleanup(*mapreduce.Context) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m.mallocs += m1.Mallocs - m.m0.Mallocs
}

// TestFilterMapAllocationBudget bounds what the filtering job's map tasks
// allocate per segment they emit, once the shuffle's pools are warm, on
// PubMed at a quarter of the benchmark's scale under the public defaults
// (30 fragments × 21 horizontal partitions, four map tasks, 30 reduce
// tasks): a segment goes into its partition's tailed column unboxed, so
// what is left is each partition's first record, which picks the column,
// and the column, allocated with its first chunks. The limit is 0.016 +
// 50 %, measured while a column took its first chunks from the pools; it
// measures 0.011 since. A mapper whose segments crossed the shuffle boxed,
// under a key string each, measured 2.0.
func TestFilterMapAllocationBudget(t *testing.T) {
	const limit = 0.024 // allocations per segment
	c := dataset.Generate(dataset.PubMed().Scale(0.25), 1)
	const theta = 0.8
	o, err := order.ComputeKind(mapreduce.NewPipeline("ordering", nil), c, order.FreqAscending)
	if err != nil {
		t.Fatal(err)
	}
	input, err := rsinput.Ordered(o, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]int, 0, c.Len())
	for _, rec := range c.Records {
		lengths = append(lengths, rec.Len())
	}
	m := &countedMapper{filterMapper: &filterMapper{
		splitter: partition.NewSplitter(partition.SelectPivots(partition.EvenTF, o, 29, 0)),
		horiz: partition.NewHorizontal(similarity.Jaccard, theta,
			partition.SelectLengthPivots(similarity.Jaccard, theta, lengths, 10)),
	}}
	discard := mapreduce.ReduceFunc(func(*mapreduce.Context, string, []any) {})
	cfg := mapreduce.Config{Name: "filtering", MapTasks: 4, ReduceTasks: 30, MemoryBudgetBytes: -1}
	for round := 0; round < 2; round++ { // the second is measured
		m.mallocs, m.emitted = 0, 0
		if _, err := mapreduce.Run(cfg, input, m, discard); err != nil {
			t.Fatal(err)
		}
	}
	perSegment := float64(m.mallocs) / float64(m.emitted)
	t.Logf("filter map: %.4f allocs/segment over %d segments (limit %v)", perSegment, m.emitted, limit)
	if perSegment > limit {
		t.Errorf("%.4f allocations per segment emitted, limit %v", perSegment, limit)
	}
}
