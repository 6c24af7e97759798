package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fsjoin"
	"fsjoin/bench/direct"
	"fsjoin/internal/core"
	"fsjoin/internal/filters"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/partition"
	"fsjoin/internal/probeindex"
	"fsjoin/internal/sched"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Fixed amounts of work in the traced run's micro-measurements; the tests'
// scale shrinks them with the inputs.
const (
	identityRecords = 1_000_000
	bufferRecords   = 200_000
	schedRounds     = 200_000
	directProbes    = 20_000
	tracedInserts   = 6_000
	insertsPerCheck = probeBatch / writeEvery // inserts between Maintain calls, as in the untraced loop
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traced is the state of one traced run: it replays the workload's input
// layer by layer, timing calls into each layer's exported functions under
// spans, and reports the per-layer metrics.
type traced struct {
	w    workload
	cfg  config
	tmp  string
	in   *input
	tr   *tracer
	root int
	g    *gate
	res  *runResult
	r, s *tokens.Collection
	dict *tokens.Dictionary
}

func (t *traced) scaled(n int) int { return max(int(float64(n)*t.cfg.scale), 100) }

func runTraced(w workload, cfg config, tmp, traceOut string) (*runResult, error) {
	t := &traced{w: w, cfg: cfg, tmp: tmp, tr: newTracer(w.name), g: &gate{}, res: newRunResult()}
	t.root = t.tr.begin(w.name, -1)
	t.tr.time("bench.generate", t.root, func() { t.in = generate(w, cfg.seed, cfg.scale) })
	fmt.Printf("%s input.records %d count\n%s input.tokens %d count\n", w.name, t.in.records, w.name, t.in.tokens)

	// tokens: intern the strings and canonicalise the records, as
	// fsjoin.Dictionary.NewCollection does.
	d := t.tr.time("tokens.encode", t.root, func() {
		t.dict = tokens.NewDictionary()
		t.r = encode(t.dict, t.in.r)
		if t.in.s != nil {
			t.s = encode(t.dict, t.in.s)
		}
	})
	t.res.set("tokens.encode_ms", ms(d))
	t.res.set("tokens.encode_ns_per_token", float64(d.Nanoseconds())/float64(t.in.tokens))
	t.filterLayer()

	var err error
	switch w.kind {
	case kindJoin:
		err = t.joinLayers()
	case kindServe:
		if err = t.joinLayers(); err == nil {
			err = t.serveLayers()
		}
	case kindProbe:
		err = t.probeLayers()
	}
	if err != nil {
		return nil, err
	}
	t.tr.finish(t.root)
	if err := t.tr.write(traceOut); err != nil {
		return nil, err
	}
	t.res.judge(t.g)
	return t.res, nil
}

func encode(d *tokens.Dictionary, sets [][]string) *tokens.Collection {
	c := &tokens.Collection{Records: make([]tokens.Record, 0, len(sets))}
	for i, set := range sets {
		ids := make([]tokens.ID, len(set))
		for j, tok := range set {
			ids[j] = d.Intern(tok)
		}
		c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
	}
	return c
}

// filterLayer times the three per-pair filter primitives on the workload's
// own records: building a bitmap signature, the signature prune test, and
// the exact early-terminating verification (each record against itself, a
// full merge that passes, and against an arbitrary partner, which usually
// stops early).
func (t *traced) filterLayer() {
	recs := t.r.Records
	n := len(recs)
	theta := t.w.opt.Threshold
	words := filters.BitmapConfig{}.Words(float64(t.r.TotalTokens()) / float64(n))
	sigs := make([]filters.Signature, n)
	parent := t.tr.begin("filters", t.root)
	d := t.tr.time("filters.sig_build", parent, func() {
		for i := range recs {
			filters.BuildSignature(&sigs[i], recs[i].Tokens, words)
		}
	})
	t.res.set("filters.sig_build_ns", float64(d.Nanoseconds())/float64(n))

	partner := func(i int) int { return (i*7919 + 1) % n }
	rounds := max(1, 1_000_000/n)
	pruned := 0
	d = t.tr.time("filters.sig_prune", parent, func() {
		for k := 0; k < rounds; k++ {
			for i := range recs {
				j := partner(i + k)
				la, lb := recs[i].Len(), recs[j].Len()
				if filters.SigPrune(&sigs[i], &sigs[j], words, la, lb, similarity.Jaccard.MinOverlap(theta, la, lb)) {
					pruned++
				}
			}
		}
	})
	t.res.set("filters.sig_prune_ns", float64(d.Nanoseconds())/float64(rounds*n))

	passed := 0
	d = t.tr.time("filters.verify", parent, func() {
		for i := range recs {
			a, b := recs[i].Tokens, recs[partner(i)].Tokens
			if _, ok := filters.VerifyOverlap(a, a, similarity.Jaccard.MinOverlap(theta, len(a), len(a))); ok {
				passed++
			}
			if _, ok := filters.VerifyOverlap(a, b, similarity.Jaccard.MinOverlap(theta, len(a), len(b))); ok {
				passed++
			}
		}
	})
	t.res.set("filters.verify_ns_per_pair", float64(d.Nanoseconds())/float64(2*n))
	t.tr.finish(parent)
	t.g.check(passed >= n, "VerifyOverlap rejected a record against itself (%d of %d passed)", passed, n)
	fmt.Printf("%s filters.sig_words %d count\n%s filters.sig_pruned_share %.4f ratio\n", t.w.name, words, t.w.name, float64(pruned)/float64(rounds*n))
}

// coreOptions lowers the workload's public options onto core.Options the way
// fsjoin.Collection.SelfJoin does.
func (t *traced) coreOptions() core.Options {
	par := t.w.opt.LocalParallelism
	if par == 0 {
		par = mapreduce.AutoParallelism
	}
	return core.Options{
		Fn: similarity.Jaccard, Theta: t.w.opt.Threshold,
		VerticalPartitions: t.w.opt.VerticalPartitions,
		HorizontalPivots:   10,
		PivotMethod:        partition.EvenTF,
		JoinMethod:         fragjoin.Prefix,
		Cluster:            mapreduce.DefaultCluster(),
		LocalParallelism:   par,
		MemoryBudget:       t.w.opt.MemoryBudget,
	}
}

func (t *traced) coreJoin(opt core.Options) (*core.Result, error) {
	if t.s != nil {
		return core.Join(t.r, t.s, opt)
	}
	return core.SelfJoin(t.r, opt)
}

// joinLayers measures one join layer by layer: the public call with and
// without a span, core.SelfJoin and its three MapReduce stages, then order,
// partition and fragjoin replayed on their own, the engine and spill
// yardsticks, and the direct single-node join.
func (t *traced) joinLayers() error {
	name := t.w.name
	st := &state{w: t.w, in: t.in}
	st.r, st.s = t.in.collections()
	if _, err := st.join(t.w.opt); err != nil { // warm-up
		return err
	}

	// The same public call, bare and under a span.
	runtime.GC()
	start := time.Now()
	pub, err := st.join(t.w.opt)
	if err != nil {
		return err
	}
	untraced := time.Since(start)
	runtime.GC()
	var again *fsjoin.Result
	tracedWall := t.tr.time("fsjoin.join", t.root, func() { again, err = st.join(t.w.opt) })
	if err != nil {
		return err
	}
	t.g.check(digest(again.Pairs) == digest(pub.Pairs), "two public joins returned different results")
	checkJoin(t.g, t.in, t.w.opt.Threshold, pub.Pairs, t.cfg.seed)
	t.res.set("bench.trace_overhead_x", ms(tracedWall)/ms(untraced))
	publicMS := (ms(untraced) + ms(tracedWall)) / 2
	fmt.Printf("%s fsjoin.join_untraced_ms %.3f ms\n%s fsjoin.join_traced_ms %.3f ms\n", name, ms(untraced), name, ms(tracedWall))

	// core: the pipeline under the public call, and its stages.
	copt := t.coreOptions()
	runtime.GC()
	var cres *core.Result
	coreSpan := t.tr.begin("core.join", t.root)
	cres, err = t.coreJoin(copt)
	coreWall := t.tr.finish(coreSpan)
	if err != nil {
		return err
	}
	t.g.check(samePairs(pub.Pairs, len(cres.Pairs), func(i int) (int, int, int) {
		p := cres.Pairs[i]
		return int(p.A), int(p.B), p.Common
	}), "core join and public join returned different pairs")
	t.res.set("fsjoin.publish_overhead_ms", publicMS-ms(coreWall))
	t.res.set("core.sim_cluster_s", cres.Pipeline.TotalSimulatedTime().Seconds())
	t.res.set("core.candidates", float64(cres.FilterOutputRecords))
	t.res.set("core.pairs", float64(len(cres.Pairs)))
	t.res.set("fragjoin.comparisons", float64(cres.Pipeline.Counter(fragjoin.CtrComparisons)))
	t.res.set("filters.bitmap_reject_ratio", float64(pub.Stats.BitmapRejected)/float64(max(pub.Stats.BitmapRejected+pub.Stats.BitmapPassed, 1)))
	t.res.set("spill.runs", float64(pub.Stats.SpillRuns))
	t.res.set("spill.write_mb", float64(pub.Stats.SpillBytes)/1e6)
	t.res.set("spill.merge_ways", float64(cres.Pipeline.MaxCounter(mapreduce.CounterSpillMergeWays)))

	var offset, filterTasks time.Duration
	byName := map[string]mapreduce.Metrics{}
	for _, m := range cres.Pipeline.Stages() {
		byName[m.Job] = m
		t.tr.add("mapreduce."+m.Job, coreSpan, offset, m.WallTime)
		offset += m.WallTime
	}
	for _, stage := range stages {
		m, ok := byName[stage]
		if !ok {
			return fmt.Errorf("core pipeline has no %q stage", stage)
		}
		var mapT, redT time.Duration
		for _, d := range m.MapTaskTime {
			mapT += d
		}
		reds := make([]float64, len(m.ReduceTaskTime))
		for i, d := range m.ReduceTaskTime {
			redT += d
			reds[i] = ms(d)
		}
		if stage == "filtering" {
			filterTasks = mapT + redT
		}
		pre := "mapreduce." + stage + "."
		t.res.set(pre+"wall_ms", ms(m.WallTime))
		t.res.set(pre+"map_task_ms", ms(mapT))
		t.res.set(pre+"reduce_task_ms", ms(redT))
		t.res.set(pre+"shuffle_records", float64(m.ShuffleRecords))
		t.res.set(pre+"shuffle_mb", float64(m.ShuffleBytes)/1e6)
		t.res.set(pre+"straggler_x", maxOf(reds)/max(median(reds), 1e-6))
		t.res.set(pre+"load_imbalance_x", m.LoadImbalance())
	}

	splitD, joinD, err := t.replay(copt, cres)
	if err != nil {
		return err
	}
	// Task time, not stage wall: the replay above is sequential, the stage
	// runs its tasks on two workers.
	t.res.set("mapreduce.filtering.self_ms", ms(filterTasks-splitD-joinD))
	t.identityYardstick(copt.LocalParallelism)
	if err := t.spillBuffer(); err != nil {
		return err
	}

	// direct: the same join without an engine.
	var dres []direct.Pair
	dd := t.tr.time("direct.join", t.root, func() {
		if t.in.idsS != nil {
			dres = direct.Join(idSets(t.in.idsR), idSets(t.in.idsS), t.w.opt.Threshold)
		} else {
			dres = direct.SelfJoin(idSets(t.in.idsR), t.w.opt.Threshold)
		}
	})
	t.g.check(samePairs(pub.Pairs, len(dres), func(i int) (int, int, int) {
		return dres[i].A, dres[i].B, dres[i].Common
	}), "direct join and public join returned different pairs")
	t.res.set("direct.join_ms", ms(dd))
	t.res.set("core.engine_overhead_x", publicMS/ms(dd))
	// The kernel's share of the call: what makes rs_email_kernel the kernel
	// workload and self_wiki_inmem the control (README.md records both).
	fmt.Printf("%s fsjoin.join_ms %.3f ms\n%s fragjoin.share_of_call %.4f ratio\n", name, publicMS, name, ms(joinD)/publicMS)

	if onSpill(t.w) {
		inmem := t.w.opt
		inmem.MemoryBudget = -1
		runtime.GC()
		d := t.tr.time("fsjoin.join_inmem", t.root, func() { _, err = st.join(inmem) })
		if err != nil {
			return err
		}
		t.res.set("spill.slowdown_x", publicMS/ms(d))
		fmt.Printf("%s fsjoin.join_inmem_ms %.3f ms\n", name, ms(d))
	}
	return nil
}

// samePairs reports whether another join's n pairs, read through at, are
// the public join's, in order.
func samePairs(pub []fsjoin.Pair, n int, at func(i int) (a, b, common int)) bool {
	if n != len(pub) {
		return false
	}
	for i, p := range pub {
		if a, b, c := at(i); a != p.A || b != p.B || c != p.Common {
			return false
		}
	}
	return true
}

func idSets(c *tokens.Collection) [][]uint32 {
	out := make([][]uint32, len(c.Records))
	for i, r := range c.Records {
		out[i] = r.Tokens
	}
	return out
}

// replay runs order, partition and fragjoin on their own, in the sequence
// core.run calls them, and returns the split and fragment-join times.
func (t *traced) replay(copt core.Options, cres *core.Result) (splitD, joinD time.Duration, err error) {
	p := mapreduce.NewPipeline("bench-order", copt.Cluster)
	p.Parallelism = copt.LocalParallelism
	union := t.r
	if t.s != nil {
		union = &tokens.Collection{Records: append(append([]tokens.Record{}, t.r.Records...), t.s.Records...)}
	}
	parent := t.tr.begin("order", t.root)
	var o *order.Order
	d := t.tr.time("order.compute", parent, func() { o, err = order.ComputeKind(p, union, order.FreqAscending) })
	if err != nil {
		return 0, 0, err
	}
	t.res.set("order.compute_ms", ms(d))
	t.res.set("order.domain_tokens", float64(o.Domain()))
	ordered := make([]*tokens.Collection, 0, 2)
	d = t.tr.time("order.apply", parent, func() {
		for _, c := range []*tokens.Collection{t.r, t.s} {
			if c == nil {
				continue
			}
			var oc *tokens.Collection
			if oc, err = o.Apply(c); err != nil {
				return
			}
			ordered = append(ordered, oc)
		}
	})
	t.tr.finish(parent)
	if err != nil {
		return 0, 0, err
	}
	t.res.set("order.apply_ms", ms(d))

	parent = t.tr.begin("partition", t.root)
	var splitter *partition.Splitter
	var horiz *partition.Horizontal
	d = t.tr.time("partition.pivots", parent, func() {
		fragments := copt.VerticalPartitions
		if fragments <= 0 {
			fragments = 3 * copt.Cluster.Nodes
		}
		splitter = partition.NewSplitter(partition.SelectPivots(partition.EvenTF, o, fragments-1, 0))
		lengths := make([]int, 0, union.Len())
		for _, rec := range union.Records {
			lengths = append(lengths, rec.Len())
		}
		horiz = partition.NewHorizontal(copt.Fn, copt.Theta,
			partition.SelectLengthPivots(copt.Fn, copt.Theta, lengths, copt.HorizontalPivots))
	})
	t.res.set("partition.pivots_ms", ms(d))

	type fragKey struct{ h, v int }
	frags := map[fragKey][]fragjoin.Seg{}
	segments := 0
	splitD = t.tr.time("partition.split", parent, func() {
		for origin, c := range ordered {
			for _, rec := range c.Records {
				if rec.Len() == 0 {
					continue
				}
				segs := splitter.Split(rec)
				for _, asg := range horiz.Assign(rec.Len()) {
					for _, seg := range segs {
						k := fragKey{asg.Partition, seg.Fragment}
						frags[k] = append(frags[k], fragjoin.Seg{
							RID: rec.RID, Origin: uint8(origin), Role: asg.Role,
							StrLen: int32(seg.StrLen), Head: int32(seg.Head), Tail: int32(seg.Tail),
							Tokens: seg.Tokens,
						})
						segments++
					}
				}
			}
		}
	})
	t.tr.finish(parent)
	t.res.set("partition.split_ms", ms(splitD))
	t.res.set("partition.segments", float64(segments))
	t.res.set("partition.replication_x", float64(segments)/float64(union.Len()))

	keys := make([]fragKey, 0, len(frags))
	for k := range frags {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].h != keys[j].h {
			return keys[i].h < keys[j].h
		}
		return keys[i].v < keys[j].v
	})
	params := fragjoin.Params{
		Fn: copt.Fn, Theta: copt.Theta, Filters: filters.All, Method: fragjoin.Prefix,
		RS: t.s != nil, Bitmap: filters.BitmapConfig{}.ResolveEnv(),
	}
	emitted := 0
	var times []float64
	parent = t.tr.begin("fragjoin", t.root)
	for _, k := range keys {
		d := t.tr.time(fmt.Sprintf("fragjoin.join h%d/v%d", k.h, k.v), parent, func() {
			fragjoin.Join(nil, frags[k], params, func(a, b *fragjoin.Seg, c int) { emitted++ })
		})
		times = append(times, ms(d))
	}
	joinD = t.tr.finish(parent)
	t.g.check(int64(emitted) == cres.FilterOutputRecords,
		"replayed fragments emitted %d partials, the filtering stage %d", emitted, cres.FilterOutputRecords)
	t.res.set("fragjoin.join_ms", sum(times))
	t.res.set("fragjoin.max_fragment_ms", maxOf(times))
	t.res.set("fragjoin.fragment_skew_x", maxOf(times)/(sum(times)/float64(len(times))))
	t.res.set("fragjoin.emitted", float64(emitted))
	t.res.set("fragjoin.emitted_per_result", float64(emitted)/float64(max(len(cres.Pairs), 1)))
	fmt.Printf("%s fragjoin.fragments %d count\n", t.w.name, len(keys))
	return splitD, joinD, nil
}

// sumCounts is the yardstick's reducer and combiner: it sums int64 counts
// through the engine's fold fast path, the shape of the verification stage.
type sumCounts struct{}

func (sumCounts) Reduce(ctx *mapreduce.Context, key string, values []any) {
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	ctx.Emit(key, n)
}
func (sumCounts) Fold(acc, v any) any { return acc.(int64) + v.(int64) }
func (sumCounts) FinishFold(ctx *mapreduce.Context, key string, acc any) {
	ctx.Emit(key, acc)
}

// identityYardstick is the engine's cost per record with no user work in
// it: mapreduce.Run with the identity mapper and a summing reducer over
// PairKey → count records, four to a key.
func (t *traced) identityYardstick(parallelism int) {
	n := t.scaled(identityRecords)
	input := make([]mapreduce.KV, n)
	for i := range input {
		k := uint32(i / 4)
		input[i] = mapreduce.KV{Key: mapreduce.PairKey(k%1000, k/1000), Value: int64(1)}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var out *mapreduce.Result
	var err error
	d := t.tr.time("mapreduce.identity", t.root, func() {
		out, err = mapreduce.Run(mapreduce.Config{Name: "identity", Combiner: sumCounts{}, Parallelism: parallelism},
			input, mapreduce.IdentityMapper, sumCounts{})
	})
	runtime.ReadMemStats(&m1)
	t.g.check(err == nil && len(out.Output) == (n+3)/4, "identity job: %v", err)
	t.res.set("mapreduce.identity_ns_per_record", float64(d.Nanoseconds())/float64(n))
	t.res.set("mapreduce.identity_b_per_record", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	t.res.set("mapreduce.identity_allocs_per_record", float64(m1.Mallocs-m0.Mallocs)/float64(n))
}

// spillBuffer times spill.Buffer on its own: Add then Drain of every
// partition under the spill workload's 256 KiB budget.
func (t *traced) spillBuffer() error {
	n := t.scaled(bufferRecords)
	const parts = 30
	keys := make([]string, n)
	for i := range keys {
		keys[i] = mapreduce.PairKey(uint32(i%977), uint32(i))
	}
	buf := spill.NewBuffer(spill.Config{
		Parts: parts, Budget: 256 << 10, Dir: t.tmp,
		Size: func(key string, v any) int64 { return int64(len(key)) + 16 },
	})
	defer buf.Close()
	var err error
	drained := 0
	d := t.tr.time("spill.buffer", t.root, func() {
		for i, k := range keys {
			if err = buf.Add(i%parts, k, int64(i)); err != nil {
				return
			}
		}
		for p := 0; p < parts && err == nil; p++ {
			_, err = buf.Drain(p, func(string, any, int64) { drained++ })
		}
	})
	if err != nil {
		return err
	}
	t.g.check(drained == n, "spill.Buffer drained %d of %d records", drained, n)
	t.res.set("spill.buffer_ns_per_record", float64(d.Nanoseconds())/float64(n))
	fmt.Printf("%s spill.buffer_runs %d count\n", t.w.name, buf.Stats().Runs)
	return nil
}

// serveLayers measures what the Server adds to a small job: the admission
// gate on its own, then the same job from the same number of clients through
// the Server and as direct calls.
func (t *traced) serveLayers() error {
	gate := sched.New(1<<30, serveClients, 16)
	n := t.scaled(schedRounds)
	d := t.tr.time("sched.acquire_release", t.root, func() {
		for i := 0; i < n; i++ {
			if lease, err := gate.Acquire(context.Background(), 1<<20, 0, 0); err == nil {
				lease.Release()
			}
		}
	})
	gate.Close()
	t.res.set("sched.acquire_release_ns", float64(d.Nanoseconds())/float64(n))

	st, err := setup(t.w, t.cfg.seed, t.cfg.scale, t.tmp)
	if err != nil {
		return err
	}
	defer st.close()
	// loop runs job from serveClients closed-loop clients for a quarter of
	// the run's seconds and returns the sorted latencies in ms.
	loop := func(span string, job func() error) []float64 {
		var mu sync.Mutex
		var lat []float64
		var wg sync.WaitGroup
		id := t.tr.begin(span, t.root)
		start := time.Now()
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start).Seconds() < t.cfg.seconds/4 {
					t0 := time.Now()
					err := job()
					d := time.Since(t0)
					mu.Lock()
					lat = append(lat, ms(d))
					t.g.check(err == nil, "%s: %v", span, err)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		t.tr.finish(id)
		sort.Float64s(lat)
		return lat
	}
	var waits []float64
	var mu sync.Mutex
	served := loop("fsjoin.server_jobs", func() error {
		res, err := st.srv.SelfJoin(context.Background(), st.r, t.w.opt)
		if err == nil {
			mu.Lock()
			waits = append(waits, ms(res.Stats.QueueWait))
			mu.Unlock()
		}
		return err
	})
	directCalls := loop("fsjoin.direct_jobs", func() error {
		_, err := st.r.SelfJoin(t.w.opt)
		return err
	})
	sort.Float64s(waits)
	t.res.set("sched.queue_wait_p50_ms", quantile(waits, 0.5))
	t.res.set("sched.shed", float64(st.srv.Stats().Shed))
	t.res.set("fsjoin.server_overhead_ms", quantile(served, 0.5)-quantile(directCalls, 0.5))
	fmt.Printf("%s fsjoin.server_job_p50_ms %.3f ms\n%s fsjoin.direct_job_p50_ms %.3f ms\n",
		t.w.name, quantile(served, 0.5), t.w.name, quantile(directCalls, 0.5))
	return nil
}

// walSize is the size of the write-ahead log files in an index directory.
func walSize(dir string) int64 {
	logs, _ := filepath.Glob(filepath.Join(dir, "wal.*"))
	var n int64
	for _, p := range logs {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// probeLayers measures the probe index below the public wrapper: build,
// direct probes, durable inserts with their compactions, save and load.
func (t *traced) probeLayers() error {
	name := t.w.name
	theta := t.w.opt.Threshold
	popt := probeindex.Options{Fn: similarity.Jaccard, Theta: theta}
	rng := rand.New(rand.NewSource(t.cfg.seed))
	parent := t.tr.begin("probeindex", t.root)
	defer t.tr.finish(parent)

	var ix *probeindex.Index
	var err error
	d := t.tr.time("probeindex.build", parent, func() { ix, err = probeindex.Build(t.r, t.dict.Token, popt) })
	if err != nil {
		return err
	}
	t.res.set("probeindex.build_ms", ms(d))

	n := t.scaled(directProbes)
	before := ix.Stats()
	empty := 0
	d = t.tr.time("probeindex.probe_direct", parent, func() {
		for i := 0; i < n; i++ {
			if len(ix.Probe(t.in.r[rng.Intn(t.in.records)])) == 0 {
				empty++
			}
		}
	})
	after := ix.Stats()
	t.g.check(empty == 0, "%d direct probes of indexed sets found nothing", empty)
	t.res.set("probeindex.probe_direct_ns", float64(d.Nanoseconds())/float64(n))
	t.res.set("probeindex.candidates_per_probe", float64(after.Candidates-before.Candidates)/float64(n))
	t.res.set("probeindex.hits_per_probe", float64(after.Hits-before.Hits)/float64(n))

	// The public wrapper over a static index: the same probes bare and with
	// a span each, and the oracle check.
	st := &state{w: t.w, in: t.in}
	st.r, _ = t.in.collections()
	pub, err := fsjoin.BuildIndex(st.r, fsjoin.IndexOptions{Threshold: theta})
	if err != nil {
		return err
	}
	picks := make([]int, n)
	for i := range picks {
		picks[i] = rng.Intn(t.in.records)
	}
	start := time.Now()
	for _, i := range picks {
		pub.Probe(t.in.r[i])
	}
	untraced := time.Since(start)
	id := t.tr.begin("fsjoin.probes", parent)
	for _, i := range picks {
		t.tr.time("fsjoin.probe", id, func() { pub.Probe(t.in.r[i]) })
	}
	t.res.set("bench.trace_overhead_x", ms(t.tr.finish(id))/ms(untraced))
	var probes []tokens.Record
	var sets [][]string
	for _, i := range sampleRIDs(probeSampleSize, t.in.records, t.cfg.seed) {
		probes = append(probes, t.in.idsR.Records[i])
		sets = append(sets, t.in.r[i])
	}
	checkProbes(t.g, pub, t.in.idsR, probes, sets, theta)

	// Durable inserts, with the untraced loop's Maintain cadence.
	dir, err := os.MkdirTemp(t.tmp, "index-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	err = ix.Persist(dir, probeindex.DurableOptions{
		Sync:        probeindex.SyncPolicy{Mode: probeindex.SyncInterval},
		AutoCompact: probeindex.AutoCompactPolicy{MaxLogRecords: compactAt},
	})
	if err != nil {
		return err
	}
	m := newMixedOps(st, t.cfg.seed)
	inserts := t.scaled(tracedInserts)
	var lat, compacts []float64
	var walBytesPerInsert float64
	id = t.tr.begin("probeindex.inserts", parent)
	for i := 1; i <= inserts; i++ {
		set := render(m.nearDuplicate())
		t0 := time.Now()
		_, err := ix.Insert(set)
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		t.g.check(err == nil, "Insert: %v", err)
		if i == min(inserts, compactAt/2) {
			// The log has not been rotated yet: its size is what the
			// inserts so far appended.
			walBytesPerInsert = float64(walSize(dir)) / float64(i)
		}
		if i%insertsPerCheck == 0 {
			c0 := ix.Stats().Compactions
			d := t.tr.time("probeindex.maintain", id, func() { err = ix.Maintain() })
			t.g.check(err == nil, "Maintain: %v", err)
			if ix.Stats().Compactions > c0 {
				compacts = append(compacts, ms(d))
			}
		}
	}
	t.tr.finish(id)
	snapshotMB := float64(ix.Stats().SnapshotBytes) / 1e6
	if err := ix.Close(); err != nil {
		return err
	}
	sort.Float64s(lat)
	t.res.set("probeindex.insert_ns", sum(lat)/float64(len(lat)))
	t.res.set("probeindex.insert_p50_us", quantile(lat, 0.5)/1e3)
	t.res.set("probeindex.insert_p99_us", quantile(lat, 0.99)/1e3)
	t.res.set("probeindex.wal_bytes_per_insert", walBytesPerInsert)
	t.res.set("probeindex.compactions", float64(len(compacts)))
	t.res.set("probeindex.compact_ms", sum(compacts)/float64(max(len(compacts), 1)))
	t.res.set("probeindex.snapshot_mb", snapshotMB)

	saveDir, err := os.MkdirTemp(t.tmp, "saved-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(saveDir)
	d = t.tr.time("probeindex.save", parent, func() { err = ix.Save(saveDir) })
	if err != nil {
		return err
	}
	t.res.set("probeindex.save_ms", ms(d))
	var loaded *probeindex.Index
	d = t.tr.time("probeindex.load", parent, func() { loaded, err = probeindex.Load(saveDir, popt) })
	if err != nil {
		return err
	}
	t.g.check(loaded.Len() == ix.Len(), "loaded index holds %d records, saved %d", loaded.Len(), ix.Len())
	t.res.set("probeindex.load_ms", ms(d))
	fmt.Printf("%s probeindex.records_after_inserts %d count\n", name, ix.Len())
	return nil
}
