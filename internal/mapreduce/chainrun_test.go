package mapreduce_test

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fsjoin/internal/core"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/massjoin"
	"fsjoin/internal/minhash"
	"fsjoin/internal/result"
	"fsjoin/internal/ridpairs"
	"fsjoin/internal/spill"
	"fsjoin/internal/testutil"
	"fsjoin/internal/tokens"
	"fsjoin/internal/vsmart"
)

// untimed keeps what a job's metrics say that is not a measured time.
func untimed(m mapreduce.Metrics) mapreduce.Metrics {
	m.MapTaskTime, m.ReduceTaskTime, m.ReduceFetchTime = nil, nil, nil
	m.SimulatedMapTime, m.SimulatedShuffle, m.SimulatedReduce, m.SimulatedTotalTime, m.WallTime = 0, 0, 0, 0, 0
	return m
}

// chainSite runs one algorithm whose pipeline chains a stage onto another,
// over r, or r and s in an R-S join, at the given parallelism and budget in
// env.
type chainSite struct {
	name string
	rs   bool
	run  func(r, s *tokens.Collection, par int, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error)
}

func fsSite(name string, hpivots int, rs bool) chainSite {
	return chainSite{name, rs, func(r, s *tokens.Collection, par int, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
		opt := core.Options{Theta: 0.6, VerticalPartitions: 4, HorizontalPivots: hpivots, JoinMethod: fragjoin.Prefix,
			Cluster: testutil.SmallCluster(), LocalParallelism: par, MemoryBudget: budget, Env: env}
		var res *core.Result
		var err error
		if s == nil {
			res, err = core.SelfJoin(r, opt)
		} else {
			res, err = core.Join(r, s, opt)
		}
		if err != nil {
			return nil, nil, err
		}
		return res.Pairs, res.Pipeline, nil
	}}
}

var chainSites = []chainSite{
	fsSite("fs", 2, false), fsSite("fs", 2, true), fsSite("fs-v", 0, false), fsSite("fs-v", 0, true),
	{"ridpairs", false, nil}, {"ridpairs", true, nil},
	{"vsmart", false, nil}, {"vsmart", true, nil},
	{"minhash", false, nil}, {"minhash", true, nil},
	{"massjoin", false, nil},
}

func init() {
	for i := range chainSites {
		site := &chainSites[i]
		switch site.name {
		case "ridpairs":
			site.run = func(r, s *tokens.Collection, par int, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
				opt := ridpairs.Options{Theta: 0.6, Cluster: testutil.SmallCluster(), Parallelism: par, MemoryBudget: budget, Env: env}
				var res *ridpairs.Result
				var err error
				if s == nil {
					res, err = ridpairs.SelfJoin(r, opt)
				} else {
					res, err = ridpairs.Join(r, s, opt)
				}
				if err != nil {
					return nil, nil, err
				}
				return res.Pairs, res.Pipeline, nil
			}
		case "vsmart":
			site.run = func(r, s *tokens.Collection, par int, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
				opt := vsmart.Options{Theta: 0.6, Cluster: testutil.SmallCluster(), Parallelism: par, MemoryBudget: budget, Env: env}
				var res *vsmart.Result
				var err error
				if s == nil {
					res, err = vsmart.SelfJoin(r, opt)
				} else {
					res, err = vsmart.Join(r, s, opt)
				}
				if err != nil {
					return nil, nil, err
				}
				return res.Pairs, res.Pipeline, nil
			}
		case "minhash":
			site.run = func(r, s *tokens.Collection, par int, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
				opt := minhash.Params{Theta: 0.6, Seed: 7, Cluster: testutil.SmallCluster(), Parallelism: par, MemoryBudget: budget, Env: env}
				var res *minhash.Result
				var err error
				if s == nil {
					res, err = minhash.SelfJoin(r, opt)
				} else {
					res, err = minhash.Join(r, s, opt)
				}
				if err != nil {
					return nil, nil, err
				}
				return res.Pairs, res.Pipeline, nil
			}
		case "massjoin":
			site.run = func(r, _ *tokens.Collection, par int, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
				res, err := massjoin.SelfJoin(r, massjoin.Options{Theta: 0.6, Cluster: testutil.SmallCluster(),
					Parallelism: par, MemoryBudget: budget, Env: env})
				if err != nil {
					return nil, nil, err
				}
				return res.Pairs, res.Pipeline, nil
			}
		}
	}
}

// TestChainMatchesRun: every algorithm that chains a stage — FS-Join's
// verification, RIDPairs' dedup, V-SMART's similarity, MinHash's and
// MassJoin's candidate jobs — gives through Feed and Chain the pairs, the
// non-time metrics of every stage and the counters of every stage it gives
// through Run and Run of IdentityMapper over Output, at every parallelism
// and budget; and so do two engine jobs, output for output. In the "memory"
// leg the chained stages run; in the "fs" leg a first chained run commits
// every stage to a checkpoint directory and a second replays every stage
// from it, so each fed column and each output crosses the filesystem
// through its codec.
func TestChainMatchesRun(t *testing.T) {
	t.Run("engine", testChainOfEngineJobs)
	r := testutil.RandomCollection(80, 40, 10, 1)
	s := testutil.RandomCollection(60, 40, 10, 2)
	for _, site := range chainSites {
		for _, par := range []int{1, 4} {
			for _, budget := range []int64{-1, 4096, 1024} {
				for _, store := range []string{"memory", "fs"} {
					join := "self"
					if site.rs {
						join = "rs"
					}
					t.Run(fmt.Sprintf("%s/%s/par=%d/budget=%d/%s", site.name, join, par, budget, store), func(t *testing.T) {
						run := func(viaRun bool, ckpt string) ([]result.Pair, *mapreduce.Pipeline) {
							env := mapreduce.Env{SpillDir: t.TempDir(), CheckpointDir: ckpt}
							if viaRun {
								mapreduce.ChainsViaRun(&env)
							}
							var other *tokens.Collection
							if site.rs {
								other = s
							}
							pairs, p, err := site.run(r, other, par, budget, env)
							if err != nil {
								t.Fatal(err)
							}
							return pairs, p
						}
						wantPairs, want := run(true, "")
						var ckpt string
						if store == "fs" {
							ckpt = t.TempDir()
							if _, first := run(false, ckpt); first.CheckpointStats().Hits != 0 {
								t.Fatalf("a fresh checkpoint directory replayed %d stages", first.CheckpointStats().Hits)
							}
						}
						gotPairs, got := run(false, ckpt)
						if hits := got.CheckpointStats().Hits; store == "fs" && hits != int64(len(got.Stages())) {
							t.Fatalf("replayed %d of %d stages %+v", hits, len(got.Stages()), got.CheckpointStats())
						}
						if !reflect.DeepEqual(gotPairs, wantPairs) || len(wantPairs) == 0 {
							t.Fatalf("chained %d pairs, materialised %d:\n%v\n%v", len(gotPairs), len(wantPairs), gotPairs, wantPairs)
						}
						ws, gs := want.Stages(), got.Stages()
						if len(gs) != len(ws) {
							t.Fatalf("%d stages chained, %d materialised", len(gs), len(ws))
						}
						var spilled int64
						for i := range ws {
							if a, b := untimed(gs[i]), untimed(ws[i]); !reflect.DeepEqual(a, b) {
								t.Fatalf("stage %s: chained metrics\n%+v\nmaterialised\n%+v", ws[i].Job, a, b)
							}
							spilled += ws[i].SpillRuns
						}
						if a, b := mapreduce.StageCounters(got), mapreduce.StageCounters(want); !reflect.DeepEqual(a, b) {
							t.Fatalf("chained counters\n%v\nmaterialised\n%v", a, b)
						}
						if budget == 1024 && spilled == 0 {
							t.Fatal("a 1 KiB budget spilled nothing")
						}
					})
				}
			}
		}
	}
}

// wcJob counts the words of its input lines: map emits (word, 1), reduce
// sums.
type wcJob struct{}

func (wcJob) Map(ctx *mapreduce.Context, kv mapreduce.KV) {
	for _, w := range strings.Fields(kv.Value.(string)) {
		ctx.Emit(w, int64(1))
	}
}

func (wcJob) Reduce(ctx *mapreduce.Context, key string, values []any) {
	ctx.Emit(key, int64(len(values)))
}

// testChainOfEngineJobs holds Feed and Chain to Run and Run of
// IdentityMapper on the consumer's Output itself, and on the edges: what
// Feed returns has no Output but counts it, and a producer that emits
// nothing chains to an empty result.
func testChainOfEngineJobs(t *testing.T) {
	lines := []mapreduce.KV{{Key: "0", Value: "a b c a"}, {Key: "1", Value: "b c d"}, {Key: "2", Value: "e a f g"}}
	for _, tc := range []struct {
		name   string
		mapper mapreduce.Mapper
		words  int64
	}{
		{"words", wcJob{}, 7},
		{"none", mapreduce.MapFunc(func(*mapreduce.Context, mapreduce.KV) {}), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res [2]*mapreduce.Result
			var pipes [2]*mapreduce.Pipeline
			for i, viaRun := range []bool{true, false} {
				p := mapreduce.NewPipeline("engine", testutil.SmallCluster())
				if viaRun {
					mapreduce.ChainsViaRun(&p.Env)
				}
				fed, err := p.Feed(mapreduce.Config{Name: "count", MapTasks: 2}, lines, tc.mapper, wcJob{})
				if err != nil {
					t.Fatal(err)
				}
				if fed.Metrics.OutputRecords != tc.words || (!viaRun && fed.Output != nil) {
					t.Fatalf("Feed returned %d output records, metrics %d", len(fed.Output), fed.Metrics.OutputRecords)
				}
				if res[i], err = p.Chain(mapreduce.Config{Name: "dedup", MapTasks: 3, ReduceTasks: 4}, fed, mapreduce.FirstValue{}); err != nil {
					t.Fatal(err)
				}
				pipes[i] = p
			}
			if !reflect.DeepEqual(res[1].Output, res[0].Output) {
				t.Fatalf("chained output %v, materialised %v", res[1].Output, res[0].Output)
			}
			if tc.words == 0 && (len(res[1].Output) != 0 || res[1].Metrics.MapInputRecords != 0) {
				t.Fatalf("an empty producer chained to %+v", res[1])
			}
			for i, m := range pipes[0].Stages() {
				if a, b := untimed(pipes[1].Stages()[i]), untimed(m); !reflect.DeepEqual(a, b) {
					t.Fatalf("stage %s: chained metrics\n%+v\nmaterialised\n%+v", m.Job, a, b)
				}
			}
		})
	}
}

// oneOfEach is one value of every type the shuffle has a codec for, as
// spill's golden wire table pins them (and the engine tests' wrappedCount,
// tag 250), decoded from their frames so that unexported types are in too.
// nil and bool, frames of the codec but of no registered type, cross no
// shuffle.
var oneOfEach = []string{
	"030d", "040f", "05870e", "0680808001", "07ffffffffff3f", "0807", "09c801", "0ae0d403",
	"0b8080808004", "0c8080808080808002", "0d00006040", "0e00000000000002c0", "0f68656c6c6f20cebacf8ccf83cebcceb5",
	"10000102ff", "1103010000000200000000000080", "1203ffffffff0000000001000000", "1302090a", "1403016100026263",
	"2812010250060a03040000000500000058020000", "290614e012", "2a019a01020100000070110100", "2e01f2c00122",
	"320dd804010100e903d107b90ba10f89137117591b411f29231127f92ae12ec932b136993a", "33",
	"360a000000000000ea3f", "3d05020800000009000000", "3e0005020800000009000000", "fa02",
}

// TestChainedRecordSizes: a chained map task hands each record to the
// shuffle with the size it was emitted with, where Run's identity map has
// Emit size it again. For one value of every registered type — each
// emitted by a task of its own, and shuffled to a partition of its own —
// the two must agree.
func TestChainedRecordSizes(t *testing.T) {
	var input []mapreduce.KV
	tags := map[byte]bool{}
	for i, h := range oneOfEach {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		v, err := spill.DecodeEncoded(frame)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		tags[frame[0]] = true
		input = append(input, mapreduce.KV{Key: fmt.Sprintf("%02d", i), Value: v})
	}
	for tag := 3; tag < 256; tag++ {
		_, err := spill.DecodeEncoded([]byte{byte(tag)})
		if registered := err == nil || !strings.Contains(err.Error(), "unknown value tag"); registered && !tags[byte(tag)] {
			t.Errorf("tag %d is registered and oneOfEach has no value of it", tag)
		}
	}
	// Record i, keyed by its two digits, goes to reducer i, whose fetched
	// bytes are its size.
	byIndex := func(key uint64, _ int) int {
		i, _ := strconv.Atoi(string([]byte{byte(key >> 56), byte(key >> 48)}))
		return i
	}
	var sizes [2][]int64
	for i, viaRun := range []bool{true, false} {
		p := mapreduce.NewPipeline("sizes", testutil.SmallCluster())
		if viaRun {
			mapreduce.ChainsViaRun(&p.Env)
		}
		fed, err := p.Feed(mapreduce.Config{Name: "emit", MapTasks: len(input)}, input, mapreduce.IdentityMapper, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Chain(mapreduce.Config{Name: "shuffle", ReduceTasks: len(input), Partitioner: byIndex}, fed, mapreduce.FirstValue{})
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = res.Metrics.PerReduceBytes
	}
	for i, kv := range input {
		if sizes[1][i] != sizes[0][i] || sizes[0][i] < int64(len(kv.Key)+8) {
			t.Errorf("%T %v carried %d bytes, Emit accounts %d", kv.Value, kv.Value, sizes[1][i], sizes[0][i])
		}
	}
}
