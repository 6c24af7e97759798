package mapreduce

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"fsjoin/internal/spill"
)

// wrappedCount is an int64 count in a type that gets no column of its own,
// for the pointer it carries: a job that shuffles it runs on the []any
// fallback where the same job over int64 runs on a typed column. Same
// accounted size, and a codec, so the two spill at the same records.
type wrappedCount struct {
	n int64
	_ *struct{}
}

func init() {
	spill.Register(250, spill.Codec[wrappedCount]{
		Append: func(buf []byte, v wrappedCount) []byte { return binary.AppendVarint(buf, v.n) },
		Read:   func(d *spill.Dec) wrappedCount { return wrappedCount{n: d.Varint()} },
		Size:   func(wrappedCount) int { return 8 },
	})
}

// columnJob emits counts under keys of 0, 4, 6, 7 and 8 bytes — PairKey(a,
// 0) sharing U32Key(a)'s bytes — as int64 or —
// wrap set — as wrappedCount, and sums them per key. Beside the counts go a
// nil value and, late in each task, a string: partitions whose values stop
// being of one type.
type columnJob struct{ wrap bool }

func (j columnJob) count(n int64) any {
	if j.wrap {
		return wrappedCount{n: n}
	}
	return n
}

func num(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case wrappedCount:
		return x.n
	case string:
		return int64(len(x))
	}
	return 0
}

func (j columnJob) Map(ctx *Context, kv KV) {
	i := int64(DecodeU32Key(kv.Key))
	ctx.Emit("", j.count(1))
	ctx.Emit(U32Key(uint32(i%37)), j.count(i))
	ctx.Emit(PairKey(uint32(i%11), uint32(i%5)), j.count(2*i))
	ctx.Emit(fmt.Sprintf("k%06d", i%13), j.count(3))
	ctx.Emit(fmt.Sprintf("%06d", i%7), j.count(i+1))
	if i%50 == 0 {
		ctx.Emit(U32Key(uint32(i%3)), nil)
	}
	if i%97 == 96 {
		ctx.Emit(fmt.Sprintf("k%06d", i%13), "a string among the counts")
	}
}

func (j columnJob) Fold(acc, v any) any { return j.count(num(acc) + num(v)) }

func (j columnJob) Reduce(ctx *Context, key string, values []any) {
	var n int64
	for _, v := range values {
		n += num(v)
	}
	ctx.Inc("values.reduced", int64(len(values)))
	ctx.Emit(key, j.count(n))
}

func (j columnJob) FinishFold(ctx *Context, key string, acc any) {
	ctx.Inc("groups.finished", 1)
	ctx.Emit(key, j.count(num(acc)))
}

// typedColumnJob is columnJob over int64 with the fold offered unboxed.
type typedColumnJob struct{ columnJob }

func (typedColumnJob) FoldTyped(acc *int64, v int64) {
	unboxedFolds.Add(1)
	*acc += v
}

var unboxedFolds atomic.Int64

// TestTypedAndBoxedColumnsAgree runs the same job over a pointer-free value
// type and over the same values wrapped in a type that holds a pointer,
// which forces the []any column. Output, counters and every metric that is not a
// measured time must be identical, at every budget and parallelism, run in
// memory or replayed from a checkpoint on the filesystem ("fs") — and
// identical across those too.
func TestTypedAndBoxedColumnsAgree(t *testing.T) {
	input := make([]KV, 600)
	for i := range input {
		input[i] = KV{Key: U32Key(uint32(i)), Value: nil}
	}
	untimed := func(m Metrics) Metrics {
		m.MapTaskTime, m.ReduceTaskTime = nil, nil
		m.SimulatedMapTime, m.SimulatedShuffle, m.SimulatedReduce, m.SimulatedTotalTime, m.WallTime = 0, 0, 0, 0, 0
		return m
	}
	unwrapped := func(out []KV) []KV {
		flat := make([]KV, len(out))
		for i, kv := range out {
			flat[i] = KV{Key: kv.Key, Value: num(kv.Value)}
		}
		return flat
	}
	for _, shape := range []string{"plain", "combined", "folding"} {
		var first []KV
		for _, budget := range []int64{-1, 4096, 1024} {
			for _, store := range []string{"memory", "fs"} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/budget=%d/%s/par=%d", shape, budget, store, par)
					t.Run(name, func(t *testing.T) {
						run := func(job interface {
							Mapper
							FoldingReducer
						}) *Result {
							cfg := Config{Name: "columns", Cluster: tinyCluster(), MapTasks: 5, ReduceTasks: 3,
								MemoryBudgetBytes: budget, SpillDir: t.TempDir(), Parallelism: par}
							var reducer Reducer = job
							if shape != "folding" {
								reducer = ReduceFunc(job.Reduce)
							}
							if shape != "plain" {
								cfg.Combiner = job
							}
							if store == "memory" {
								res, err := Run(cfg, input, job, reducer)
								if err != nil {
									t.Fatal(err)
								}
								return res
							}
							// The job commits its output to a checkpoint
							// directory, and a second run replays it from
							// there through the values' codecs.
							env := Env{SpillDir: cfg.SpillDir, CheckpointDir: t.TempDir()}
							var runs [2]*Result
							for i := range runs {
								p := NewPipeline("columns", cfg.Cluster)
								p.Env = env
								res, err := p.Run(cfg, input, job, reducer)
								if err != nil {
									t.Fatal(err)
								}
								if hits := p.CheckpointStats().Hits; hits != int64(i) {
									t.Fatalf("run %d replayed %d stages", i, hits)
								}
								runs[i] = res
							}
							if !reflect.DeepEqual(runs[1].Output, runs[0].Output) ||
								!reflect.DeepEqual(runs[1].Counters.Snapshot(), runs[0].Counters.Snapshot()) ||
								!reflect.DeepEqual(untimed(runs[1].Metrics), untimed(runs[0].Metrics)) {
								t.Fatalf("replayed\n%+v\ncommitted\n%+v", runs[1], runs[0])
							}
							return runs[1]
						}
						before := unboxedFolds.Load()
						rt, rb := run(typedColumnJob{}), run(columnJob{wrap: true})
						if shape != "plain" && unboxedFolds.Load() == before {
							t.Fatal("the int64 job never folded unboxed")
						}
						ot, ob := unwrapped(rt.Output), unwrapped(rb.Output)
						if !reflect.DeepEqual(ot, ob) {
							t.Fatalf("output differs:\ntyped %v\nboxed %v", ot, ob)
						}
						if ct, cb := rt.Counters.Snapshot(), rb.Counters.Snapshot(); !reflect.DeepEqual(ct, cb) {
							t.Fatalf("counters differ:\ntyped %v\nboxed %v", ct, cb)
						}
						if mt, mb := untimed(rt.Metrics), untimed(rb.Metrics); !reflect.DeepEqual(mt, mb) {
							t.Fatalf("metrics differ:\ntyped %+v\nboxed %+v", mt, mb)
						}
						if budget == 1024 && rt.Metrics.SpillRuns == 0 {
							t.Fatalf("budget %d spilled nothing", budget)
						}
						if first == nil {
							first = ot
						}
						if !reflect.DeepEqual(ot, first) {
							t.Fatalf("output differs from the first configuration's:\n%v\n%v", ot, first)
						}
					})
				}
			}
		}
	}
}
