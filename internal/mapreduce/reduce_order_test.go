package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"fsjoin/internal/spill"
)

// hardKeys are the keys the abbreviated-key index sort could get wrong:
// empty, differing only by trailing zero bytes, of mixed lengths up to
// the eight bytes a key may have, and sharing all but their last byte.
var hardKeys = []string{
	"", "\x00", "ab", "ab\x00", "abcd", "abcdef", "abcdef\x00", "abcdefg", "abcdefg\x00",
	"abcdefgh", "abcdefgi", "shared-a", "shared-b", "shared-", "\xff\xff",
}

// hardKeyMapper emits, for input record i, three records whose keys walk
// hardKeys and whose values encode (i, j). Splits are contiguous, so value
// order within a key — map task, then emission — is ascending string
// order, and heavy duplication is guaranteed.
type hardKeyMapper struct{}

func hardEmissions(i int) (kvs [3]KV) {
	for j := range kvs {
		kvs[j] = KV{Key: hardKeys[(i*7+j*5)%len(hardKeys)], Value: fmt.Sprintf("%05d.%d", i, j)}
	}
	return kvs
}

func (hardKeyMapper) Map(ctx *Context, kv KV) {
	for _, e := range hardEmissions(kv.Value.(int)) {
		ctx.Emit(e.Key, e.Value)
	}
}

// listReducer reports each group's values in the order it received them,
// after appending to the slice it was handed: were a group's capacity not
// capped, that append would overwrite the next group's first value.
type listReducer struct{}

func (listReducer) Reduce(ctx *Context, key string, values []any) {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = v.(string)
	}
	_ = append(values, "CLOBBERED")
	ctx.Emit(key, strings.Join(parts, ","))
}

// concatReducer is listReducer as a fold; concatenation is associative, so
// folding accumulators equals folding values (the Folder contract).
type concatReducer struct{ listReducer }

func (concatReducer) Fold(acc, v any) any                          { return acc.(string) + "," + v.(string) }
func (concatReducer) FinishFold(ctx *Context, key string, acc any) { ctx.Emit(key, acc) }

// hardKeyOracle groups the same emissions the way the engine did before
// the index sort: a map per reduce partition, keys sorted with
// sort.Strings. combine folds each map task's values per key first.
func hardKeyOracle(cl *Cluster, n, mapTasks, reduceTasks int, combine bool) (out []KV, recs, bytes []int64, groupSpill []time.Duration) {
	input := make([]KV, n)
	groups := make([]map[string][]string, reduceTasks)
	gBytes := make([]map[string]int64, reduceTasks)
	for r := range groups {
		groups[r], gBytes[r] = map[string][]string{}, map[string]int64{}
	}
	recs, bytes = make([]int64, reduceTasks), make([]int64, reduceTasks)
	groupSpill = make([]time.Duration, reduceTasks)
	off := 0
	for _, split := range splitInput(input, mapTasks) {
		var order []string
		task := map[string][]string{}
		for i := off; i < off+len(split); i++ {
			for _, e := range hardEmissions(i) {
				if _, seen := task[e.Key]; !seen {
					order = append(order, e.Key)
				}
				task[e.Key] = append(task[e.Key], e.Value.(string))
			}
		}
		off += len(split)
		for _, k := range order {
			vs := task[k]
			if combine {
				vs = []string{strings.Join(vs, ",")}
			}
			r := DefaultPartitioner(spill.MakeKeyIndex(k, 0), reduceTasks)
			for _, v := range vs {
				b := int64(len(k) + len(v) + 8)
				groups[r][k] = append(groups[r][k], v)
				gBytes[r][k] += b
				recs[r]++
				bytes[r] += b
			}
		}
	}
	for r := range groups {
		var keys []string
		for k := range groups[r] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, KV{Key: k, Value: strings.Join(groups[r][k], ",")})
			groupSpill[r] += cl.groupSpillTime(gBytes[r][k])
		}
	}
	return out, recs, bytes, groupSpill
}

// TestReduceInputMatchesMapGrouping holds the index-sorted reduce input to
// the map-based oracle at every parallelism and budget, for a plain and a
// folding reducer, with and without map-side folding.
func TestReduceInputMatchesMapGrouping(t *testing.T) {
	const n, mapTasks, reduceTasks = 1500, 3, 2
	cl := tinyCluster()
	cl.ReducerMemoryBytes = 256 // some groups exceed it, some do not
	input := make([]KV, n)
	for i := range input {
		input[i] = KV{Key: U32Key(uint32(i)), Value: i}
	}
	for _, combine := range []bool{false, true} {
		want, wantRecs, wantBytes, wantSpill := hardKeyOracle(cl, n, mapTasks, reduceTasks, combine)
		for _, reducer := range []Reducer{listReducer{}, concatReducer{}} {
			for _, par := range []int{1, 4} {
				for _, budget := range []int64{-1, 4096, 1024} {
					cfg := Config{
						Name: "hard-keys", Cluster: cl, MapTasks: mapTasks, ReduceTasks: reduceTasks,
						Parallelism: par, MemoryBudgetBytes: budget, SpillDir: t.TempDir(),
					}
					if combine {
						cfg.Combiner = concatReducer{}
					}
					name := fmt.Sprintf("%T combine=%v par=%d budget=%d", reducer, combine, par, budget)
					res, err := Run(cfg, input, hardKeyMapper{}, reducer)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if budget > 0 && res.Metrics.SpillRuns == 0 {
						t.Fatalf("%s: never spilled", name)
					}
					if len(res.Output) != len(want) {
						t.Fatalf("%s: %d groups, oracle has %d", name, len(res.Output), len(want))
					}
					for i := range want {
						if res.Output[i] != want[i] {
							t.Fatalf("%s: output %d is %q with values %.40q…, oracle has %q with %.40q…", name, i,
								res.Output[i].Key, res.Output[i].Value, want[i].Key, want[i].Value)
						}
					}
					m := res.Metrics
					if !reflect.DeepEqual(m.PerReduceRecords, wantRecs) || !reflect.DeepEqual(m.PerReduceBytes, wantBytes) ||
						!reflect.DeepEqual(m.GroupSpillTime, wantSpill) {
						t.Fatalf("%s: per-reducer accounting differs: recs %v/%v bytes %v/%v group spill %v/%v", name,
							m.PerReduceRecords, wantRecs, m.PerReduceBytes, wantBytes, m.GroupSpillTime, wantSpill)
					}
				}
			}
		}
	}
}

// TestSkipReducePoisonGroupSharedPrefixKeys: with a group quarantined out
// of the middle of a partition, the surviving keys no longer line up with
// the fetched input's group positions; 8-byte keys that differ only in
// their last byte make the lookup depend on every byte of the key.
func TestSkipReducePoisonGroupSharedPrefixKeys(t *testing.T) {
	keys := []string{"reckey01", "reckey02", "reckey03", "reckey04", "reckey05"}
	input := wcInput(strings.Join(keys, " "), strings.Join(keys[1:4], " "), keys[2])
	poison := keys[2]
	for _, reducer := range []Reducer{poisonKeyReducer{key: poison}, poisonFoldReducer{key: poison}} {
		var quarantined []QuarantinedRecord
		cfg := skipConfig(0)
		cfg.ReduceTasks = 1
		cfg.Fault.Quarantine = func(r QuarantinedRecord) { quarantined = append(quarantined, r) }
		res, err := Run(cfg, input, wcMapper{}, reducer)
		if err != nil {
			t.Fatal(err)
		}
		want := []KV{{keys[0], int64(1)}, {keys[1], int64(2)}, {keys[3], int64(2)}, {keys[4], int64(1)}}
		if !reflect.DeepEqual(res.Output, want) {
			t.Errorf("%T: output = %v, want %v", reducer, res.Output, want)
		}
		if len(quarantined) != 1 || quarantined[0].Key != poison || quarantined[0].Phase != PhaseReduce {
			t.Errorf("%T: quarantined = %+v, want the one reduce group %s", reducer, quarantined, poison)
		}
	}
}

// poisonFoldReducer is poisonKeyReducer on the folding path.
type poisonFoldReducer struct{ key string }

func (r poisonFoldReducer) Reduce(ctx *Context, key string, values []any) {
	poisonKeyReducer(r).Reduce(ctx, key, values)
}
func (poisonFoldReducer) Fold(acc, v any) any { return acc.(int64) + v.(int64) }
func (r poisonFoldReducer) FinishFold(ctx *Context, key string, acc any) {
	r.Reduce(ctx, key, []any{acc})
}

// TestLostAttemptCountsNothing: only the winning attempt's increments
// reach the job counters — the first attempt dies after it has counted
// every word — in a map-only job and in one that combines and reduces.
func TestLostAttemptCountsNothing(t *testing.T) {
	for _, mapOnly := range []bool{false, true} {
		failed := false
		mapper := &cleanupFailsOnce{failed: &failed}
		cfg := Config{Cluster: tinyCluster(), MapTasks: 1, ReduceTasks: 1}
		var reducer Reducer
		if !mapOnly {
			cfg.Combiner, reducer = wcReducer{}, wcReducer{}
		}
		res, err := Run(cfg, wcInput("a b a", "b c"), mapper, reducer)
		if err != nil {
			t.Fatal(err)
		}
		// 5 words mapped (+1 each), by the winning attempt alone.
		if got := res.Counters.Get("shared"); got != 5 {
			t.Errorf("mapOnly=%v: shared = %d, want 5", mapOnly, got)
		}
		if res.Counters.Get(CounterRetries) != 1 {
			t.Errorf("mapOnly=%v: retries = %d, want 1", mapOnly, res.Counters.Get(CounterRetries))
		}
	}
}

// cleanupFailsOnce is a word-count mapper counting "shared" per word; its
// first attempt panics in Cleanup, after every record was mapped.
type cleanupFailsOnce struct{ failed *bool }

func (m *cleanupFailsOnce) Map(ctx *Context, kv KV) {
	for _, w := range strings.Fields(kv.Value.(string)) {
		ctx.Inc("shared", 1)
		ctx.Emit(w, int64(1))
	}
}

func (m *cleanupFailsOnce) Cleanup(ctx *Context) {
	if !*m.failed {
		*m.failed = true
		panic("first attempt lost")
	}
}

// TestShuffleAllocationBudget is the deterministic guard against the
// shuffle regrowing or re-hashing per record: an identity job over 8-byte
// keys through 30 reducers may allocate this many bytes per input record.
// The first four limits sit about 15 % above the median of twenty
// measurements on a two-core x86-64 host (97, 138, 120 and 115), and below what the same jobs
// allocated while a reduce task still copied every map task's in-memory
// partition into one Records before grouping (121, 164, 144 and 138): a
// return of that copy fails them. Under the race detector, whose
// sync.Pool drops a share of the sort indexes given back, the jobs
// allocate 16 to 19 bytes per record more (113, 156, 139 and 131 at
// most), and each limit is raised by raceAllowance. Earlier, the
// limits were the largest of three measurements (122, 168, 154 and 144)
// plus 25 %. Before reduce tasks borrowed their sort index and radix
// scratch from a pool, chained records were routed by their key's integer
// and a chained task's fold tables were sized once, the first three rows
// measured 153, 194 and 206; with one pointer-carrying struct per buffered
// and per fetched record the first two jobs allocated 215 (plain) and 230
// (fold) bytes per record, and with slices that regrow and string-keyed
// grouping maps 288 and 346. The chain row is the fold job run by Chain
// over a map-only job's Feed. Only the chained job is measured, so it pays
// for what the []KV rows are handed: a 4-byte position per record, no key
// string, no box and no KV. The chain-group row is the chain row with a
// reducer that folds unboxed and finishes each group by FinishGroup, the
// verification reducer's shape: no key string and no box per group. The
// emit-pair row is no shuffle: one reduce task emits n pair records
// through EmitPair into a Feed output, the filtering reducer's shape. It
// measured 25 (limit 31): the records' columns; through Emit(PairKey(a, b),
// v) the same records cost 41, a key string and a box more each. The
// emit-map row is its map-side twin, the ordering job's shape: one map
// task emits n int64 counts under four-byte keys through EmitU32 into its
// 30 partitions, and a reducer that folds unboxed sums them. It measured
// 35 (limit 41): a head and a count in the partitions' columns, and the
// reduce tasks' group bounds; through Emit(U32Key(x), v) the same job
// costs 51, a key string and a box more each. The two
// spill rows are the first two under a 32 KiB budget, in which every map
// task spills two runs and a reduce task decodes them, and the tail, onto
// its columns. Their limits sit about 15 % above the median of ten
// measurements (108 and 114), and below what the same jobs allocated while
// the fetch replayed the runs through a k-way merge of (string, any)
// records, a key string and a heap item per record (146 and 148). Since a
// fetch decodes an int64 straight into its column and reads each record's
// accounted size out of its frame, they measure 86 and 92. Under the race
// detector they allocated up to 135 and 167: a folding fetch sorts its
// scratch with two more indexes from the pool, which the race detector
// makes drop some of what it is given back, so the spill rows get
// spillRaceAllowance instead. Since a reduce task hands its partitions'
// chunks back once it has grouped them, and the measured run grows its
// partitions into what the warm-up run gave back, the eight rows measure
// 52, 92, 74, 70, 25, 4, 49 and 51 (medians of five), and up to 81, 125,
// 106, 104, 25, 31, 90 and 121 under the race detector; the limits stay
// where the heap-allocated chunks put them.
func TestShuffleAllocationBudget(t *testing.T) {
	const raceAllowance, spillRaceAllowance = 24, 48
	const n = 120_000
	input := make([]KV, n)
	for i := range input {
		input[i] = KV{Key: PairKey(uint32(i%4000), uint32(i%7)), Value: int64(1)}
	}
	cl := DefaultCluster()
	for _, tc := range []struct {
		name     string
		combiner Folder // nil, or folding at emit as the verification job does
		reducer  Reducer
		limit    float64
		how      string // "run", "chain", "feed" or "map"
		budget   int64  // MemoryBudgetBytes; -1 keeps the shuffle in memory
	}{
		{"plain", nil, plainSum{}, 116, "run", -1},
		{"fold", foldSum{}, foldSum{}, 156, "run", -1},
		{"chain", foldSum{}, foldSum{}, 140, "chain", -1},
		{"chain-group", groupSum{}, groupSum{}, 134, "chain", -1},
		{"emit-pair", nil, pairEmitter{n}, 31, "feed", -1},
		{"emit-map", nil, groupSum{}, 41, "map", -1},
		{"spill-plain", nil, plainSum{}, 124, "run", 32 << 10},
		{"spill-fold", foldSum{}, foldSum{}, 131, "run", 32 << 10},
	} {
		p := NewPipeline("budget", cl)
		fed, err := p.Feed(Config{MemoryBudgetBytes: -1}, input, IdentityMapper, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			cfg := Config{Cluster: cl, ReduceTasks: 30, MemoryBudgetBytes: tc.budget, Combiner: tc.combiner}
			var err error
			switch tc.how {
			case "chain":
				_, err = p.Chain(cfg, fed, tc.reducer)
			case "feed":
				_, err = p.Feed(cfg, input[:1], IdentityMapper, tc.reducer)
			case "map":
				_, err = Run(cfg, input[:1], u32Emitter{n}, tc.reducer)
			default:
				var res *Result
				res, err = Run(cfg, input, IdentityMapper, tc.reducer)
				if err == nil && tc.budget > 0 && res.Counters.Get(CounterSpillRuns) < int64(2*res.Metrics.MapTasks) {
					t.Fatalf("%s: %d spill runs from %d map tasks, want every task to spill at least twice",
						tc.name, res.Counters.Get(CounterSpillRuns), res.Metrics.MapTasks)
				}
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
		limit := tc.limit
		switch {
		case raceDetector && tc.budget > 0:
			limit += spillRaceAllowance
		case raceDetector && tc.how != "feed":
			limit += raceAllowance
		}
		t.Logf("%s: %.0f B/record (limit %.0f)", tc.name, perRecord, limit)
		if perRecord > limit {
			t.Errorf("%s: %.0f B allocated per record, limit %.0f", tc.name, perRecord, limit)
		}
	}
}

// TestShuffleChunksRecycled: a reduce task hands its partitions' chunks
// back once it has grouped them, and the next job's partitions grow into
// them. Of two identical folding jobs run back to back, with the pools
// emptied before the first and the collector held off across both so that
// it empties nothing between them, the second must allocate clearly fewer
// bytes per record: on a two-core x86-64 host it measured 131 then 87.
// Where every chunk came from the heap, the second job saved only what the
// sort-index pool saves, 139 then 132. Under the race detector, whose
// sync.Pool drops a share of what it is given, the second job measured
// 113 to 120 against 142 to 154, too close to the limit to hold it there.
func TestShuffleChunksRecycled(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops a share of the chunks given back")
	}
	const n = 120_000
	input := make([]KV, n)
	for i := range input {
		input[i] = KV{Key: PairKey(uint32(i%4000), uint32(i%7)), Value: int64(1)}
	}
	cfg := Config{Cluster: DefaultCluster(), ReduceTasks: 30, MemoryBudgetBytes: -1, Combiner: groupSum{}}
	run := func() float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Run(cfg, input, IdentityMapper, groupSum{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / n
	}
	run() // codec registries, the map's first growth
	runtime.GC()
	runtime.GC() // a pool keeps what it holds across one collection
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first, second := run(), run()
	t.Logf("first job %.0f B/record, second %.0f", first, second)
	if second > 0.75*first {
		t.Errorf("the second job allocated %.0f B per record, the first %.0f: chunks were not reused", second, first)
	}
}

// u32Emitter emits n records per input record through EmitU32, under 4000
// distinct four-byte keys, each an int64 past the values Go keeps
// preallocated boxes for.
type u32Emitter struct{ n int }

func (e u32Emitter) Map(ctx *Context, _ KV) {
	for i := 0; i < e.n; i++ {
		EmitU32(ctx, uint32(i%4000), int64(1000+i))
	}
}

// groupSum is foldSum with an unboxed fold and FinishGroup: the
// verification reducer's shape over int64 counts.
type groupSum struct{ foldSum }

func (groupSum) FoldTyped(acc *int64, v int64) { *acc += v }

func (s groupSum) FinishGroup(ctx *Context, g *spill.Groups, i int) {
	acc, ok := spill.GroupAcc[int64](g, i)
	if k := g.Abbrev(i); ok && k.Len == 8 {
		EmitPair(ctx, uint32(k.Prefix>>32), uint32(k.Prefix), acc)
		return
	}
	s.FinishFold(ctx, g.Key(i, spill.NewKeyArena(1)), g.Acc(i))
}

// pairEmitter emits n pair records per key group through EmitPair, each an
// int64 past the values Go keeps preallocated boxes for.
type pairEmitter struct{ n int }

func (e pairEmitter) Reduce(ctx *Context, key string, values []any) {
	for i := 0; i < e.n; i++ {
		EmitPair(ctx, uint32(i%4000), uint32(i%7), int64(1000+i))
	}
}
