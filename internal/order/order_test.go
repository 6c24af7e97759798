package order

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/spill"
	"fsjoin/internal/testutil"
	"fsjoin/internal/tokens"
)

func pipeline() *mapreduce.Pipeline {
	cl := mapreduce.DefaultCluster()
	cl.Nodes = 2
	return mapreduce.NewPipeline("order-test", cl)
}

func randomCollection(n, vocab, maxLen int, seed int64) *tokens.Collection {
	rng := rand.New(rand.NewSource(seed))
	c := &tokens.Collection{}
	for i := 0; i < n; i++ {
		l := rng.Intn(maxLen) + 1
		ids := make([]tokens.ID, l)
		for j := range ids {
			ids[j] = tokens.ID(rng.Intn(vocab))
		}
		c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
	}
	return c
}

func TestComputeAscendingFrequency(t *testing.T) {
	c := randomCollection(200, 50, 20, 1)
	o, err := Compute(pipeline(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(o.FreqByRank); i++ {
		if o.FreqByRank[i-1] > o.FreqByRank[i] {
			t.Fatalf("frequency not ascending at rank %d: %d > %d",
				i, o.FreqByRank[i-1], o.FreqByRank[i])
		}
	}
	// Frequencies must match a direct count.
	counts := map[tokens.ID]int64{}
	for _, r := range c.Records {
		for _, tok := range r.Tokens {
			counts[tok]++
		}
	}
	if len(counts) != o.Domain() {
		t.Fatalf("domain %d != distinct %d", o.Domain(), len(counts))
	}
	var total int64
	for rank, tok := range o.TokenAt {
		if counts[tok] != o.FreqByRank[rank] {
			t.Fatalf("token %d freq %d != counted %d", tok, o.FreqByRank[rank], counts[tok])
		}
		total += o.FreqByRank[rank]
	}
	if total != o.TotalFreq {
		t.Fatalf("TotalFreq %d != %d", o.TotalFreq, total)
	}
}

func TestRankBijection(t *testing.T) {
	c := randomCollection(100, 40, 15, 2)
	o, err := Compute(pipeline(), c)
	if err != nil {
		t.Fatal(err)
	}
	for rank, tok := range o.TokenAt {
		if o.RankOf[tok] != uint32(rank) {
			t.Fatalf("RankOf[TokenAt[%d]] = %d", rank, o.RankOf[tok])
		}
	}
}

func TestApplyPreservesSetsAndIntersections(t *testing.T) {
	c := randomCollection(80, 40, 15, 3)
	o, err := Compute(pipeline(), c)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := o.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range c.Records {
		if oc.Records[i].Len() != c.Records[i].Len() {
			t.Fatalf("record %d length changed", i)
		}
	}
	// Re-encoding is a bijection on tokens, so intersections are preserved.
	for i := 0; i < 30; i++ {
		a, b := &c.Records[i], &c.Records[i+30]
		oa, ob := &oc.Records[i], &oc.Records[i+30]
		if tokens.Intersect(a.Tokens, b.Tokens) != tokens.Intersect(oa.Tokens, ob.Tokens) {
			t.Fatalf("intersection changed for pair %d", i)
		}
	}
}

func TestApplyRejectsUnknownToken(t *testing.T) {
	c := randomCollection(20, 10, 5, 4)
	o, err := Compute(pipeline(), c)
	if err != nil {
		t.Fatal(err)
	}
	bad := &tokens.Collection{Records: []tokens.Record{tokens.NewRecord(0, []tokens.ID{9999})}}
	if _, err := o.Apply(bad); err == nil {
		t.Fatal("unknown token accepted")
	}
}

func TestComputeEmptyCollection(t *testing.T) {
	o, err := Compute(pipeline(), &tokens.Collection{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Domain() != 0 || o.TotalFreq != 0 {
		t.Fatalf("empty collection: domain=%d freq=%d", o.Domain(), o.TotalFreq)
	}
}

func TestTiesBrokenByTokenID(t *testing.T) {
	// Two tokens with equal frequency: the smaller id ranks first.
	c := &tokens.Collection{Records: []tokens.Record{
		tokens.NewRecord(0, []tokens.ID{5, 9}),
		tokens.NewRecord(1, []tokens.ID{5, 9}),
	}}
	o, err := Compute(pipeline(), c)
	if err != nil {
		t.Fatal(err)
	}
	if o.TokenAt[0] != 5 || o.TokenAt[1] != 9 {
		t.Fatalf("tie order wrong: %v", o.TokenAt)
	}
}

func TestRecordsToKVRoundTrip(t *testing.T) {
	c := randomCollection(10, 10, 5, 5)
	kvs := RecordsToKV(c)
	if len(kvs) != c.Len() {
		t.Fatalf("kv count %d", len(kvs))
	}
	for i, kv := range kvs {
		rec := KVRecord(kv)
		if rec.RID != c.Records[i].RID || rec.Len() != c.Records[i].Len() {
			t.Fatalf("record %d mangled", i)
		}
	}
}

func TestOrderingKinds(t *testing.T) {
	c := randomCollection(150, 40, 15, 9)
	desc, err := ComputeKind(pipeline(), c, FreqDescending)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(desc.FreqByRank); i++ {
		if desc.FreqByRank[i-1] < desc.FreqByRank[i] {
			t.Fatalf("descending order not descending at %d", i)
		}
	}
	lex, err := ComputeKind(pipeline(), c, Lexicographic)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(lex.TokenAt); i++ {
		if lex.TokenAt[i-1] >= lex.TokenAt[i] {
			t.Fatalf("lexicographic order not by token id at %d", i)
		}
	}
	if FreqAscending.String() != "freq-asc" || FreqDescending.String() != "freq-desc" ||
		Lexicographic.String() != "lexicographic" {
		t.Fatal("Kind names wrong")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	_, err := ComputeKind(pipeline(), randomCollection(10, 10, 5, 6), Kind(7))
	if err == nil || err.Error() != "order: unknown kind Kind(7)" {
		t.Fatalf("Kind(7): got %v, want order: unknown kind Kind(7)", err)
	}
}

// bruteOrder is the oracle: term frequencies counted in a map over every
// record but skip, and the tokens comparison-sorted under kind with ties
// by token id.
func bruteOrder(c *tokens.Collection, skip int32, kind Kind) (toks []uint32, freq map[uint32]int64) {
	freq = map[uint32]int64{}
	for _, r := range c.Records {
		if r.RID == skip {
			continue
		}
		for _, tok := range r.Tokens {
			freq[tok]++
		}
	}
	for tok := range freq {
		toks = append(toks, tok)
	}
	sort.Slice(toks, func(i, j int) bool {
		a, b := toks[i], toks[j]
		switch {
		case kind == FreqAscending && freq[a] != freq[b]:
			return freq[a] < freq[b]
		case kind == FreqDescending && freq[a] != freq[b]:
			return freq[a] > freq[b]
		}
		return a < b
	})
	return toks, freq
}

func checkAgainstOracle(t *testing.T, o *Order, c *tokens.Collection, skip int32, kind Kind) {
	t.Helper()
	toks, freq := bruteOrder(c, skip, kind)
	if o.Domain() != len(toks) || len(o.FreqByRank) != len(toks) {
		t.Fatalf("%v: domain %d, oracle %d", kind, o.Domain(), len(toks))
	}
	var total int64
	for rank, tok := range toks {
		if o.TokenAt[rank] != tok || o.FreqByRank[rank] != freq[tok] || o.RankOf[tok] != uint32(rank) {
			t.Fatalf("%v: rank %d holds token %d freq %d (RankOf %d), oracle token %d freq %d",
				kind, rank, o.TokenAt[rank], o.FreqByRank[rank], o.RankOf[tok], tok, freq[tok])
		}
		total += freq[tok]
	}
	if o.TotalFreq != total {
		t.Fatalf("%v: TotalFreq %d, oracle %d", kind, o.TotalFreq, total)
	}
	for tok, rank := range o.RankOf {
		if _, ok := freq[uint32(tok)]; !ok && rank != noRank {
			t.Fatalf("%v: token %d never occurs but has rank %d", kind, tok, rank)
		}
	}
}

// scripted injects what decide returns for a map task attempt and nothing
// anywhere else.
type scripted func(task, attempt int) mapreduce.Fault

func (s scripted) Decide(_ string, phase mapreduce.Phase, task, attempt int) mapreduce.Fault {
	if phase != mapreduce.PhaseMap {
		return mapreduce.Fault{}
	}
	return s(task, attempt)
}

// TestOrderMatchesBruteForce pins the in-mapper counts to a brute-force
// count wherever an attempt's state could leak: retried, probed and
// spilled map tasks, sequential and concurrent (par4 drives concurrent
// tasks through the one shared mapper).
func TestOrderMatchesBruteForce(t *testing.T) {
	c := randomCollection(3000, 700, 30, 11)
	const noSkip = int32(-1)
	scenarios := []struct {
		name  string
		fault func(skipped *int32) mapreduce.FaultPolicy
	}{
		{"clean", func(*int32) mapreduce.FaultPolicy { return mapreduce.FaultPolicy{} }},
		{"seeded chaos", func(*int32) mapreduce.FaultPolicy {
			return mapreduce.FaultPolicy{Injector: mapreduce.NewSeededPlan(mapreduce.PlanConfig{Seed: 3, TargetRate: 0.6})}
		}},
		// The first attempt of every map task dies with half its split
		// counted; the retry must start from zero.
		{"first attempt dies mid-split", func(*int32) mapreduce.FaultPolicy {
			return mapreduce.FaultPolicy{Injector: scripted(func(task, attempt int) mapreduce.Fault {
				if attempt == 0 {
					return mapreduce.Fault{Kind: mapreduce.FaultRecordPanic, Record: 200, Msg: "dies mid-split"}
				}
				return mapreduce.Fault{}
			})}
		}},
		// The last record of map task 2's split (3000 records over the 6
		// slots of pipeline()'s cluster) fails every attempt and probe; skip
		// mode quarantines it and its tokens are counted nowhere.
		{"poison record skipped", func(skipped *int32) mapreduce.FaultPolicy {
			return mapreduce.FaultPolicy{
				SkipBadRecords: true,
				Injector: scripted(func(task, attempt int) mapreduce.Fault {
					if task == 2 {
						return mapreduce.Fault{Kind: mapreduce.FaultRecordPanic, Record: 499, Msg: "poison"}
					}
					return mapreduce.Fault{}
				}),
				Quarantine: func(q mapreduce.QuarantinedRecord) {
					*skipped = KVRecord(mapreduce.KV{Key: q.Key, Value: q.Value}).RID
				},
			}
		}},
	}
	for _, sc := range scenarios {
		for _, par := range []int{1, 4} {
			for _, budget := range []int64{-1, 1024} {
				t.Run(fmt.Sprintf("%s/par%d/budget%d", sc.name, par, budget), func(t *testing.T) {
					for _, kind := range []Kind{FreqAscending, FreqDescending, Lexicographic} {
						skipped := noSkip
						p := pipeline()
						p.Parallelism, p.MemoryBudgetBytes = par, budget
						p.Fault = sc.fault(&skipped)
						o, err := ComputeKind(p, c, kind)
						if err != nil {
							t.Fatal(err)
						}
						if (sc.name == "poison record skipped") != (skipped != noSkip) {
							t.Fatalf("quarantined record %d", skipped)
						}
						checkAgainstOracle(t, o, c, skipped, kind)
					}
				})
			}
		}
	}
}

// TestApplyIdenticalAtAnyParallelism re-encodes more records than one work
// item holds, sequentially and on four workers, against the record-by-record
// definition.
func TestApplyIdenticalAtAnyParallelism(t *testing.T) {
	c := randomCollection(3*applyChunk+17, 900, 25, 12)
	bad := c.Clone()
	for _, i := range []int{applyChunk + 5, 2*applyChunk + 9} {
		bad.Records[i].Tokens = append(bad.Records[i].Tokens, tokens.ID(5000+i))
	}
	var first *tokens.Collection
	var firstErr string
	for _, par := range []int{1, 4} {
		p := pipeline()
		p.Parallelism = par
		o, err := Compute(p, c)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := o.Apply(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := oc.Validate(); err != nil {
			t.Fatal(err)
		}
		for i, r := range c.Records {
			ranks := make([]tokens.ID, len(r.Tokens))
			for j, tok := range r.Tokens {
				ranks[j] = o.RankOf[tok]
			}
			if want := tokens.NewRecord(r.RID, ranks); !reflect.DeepEqual(oc.Records[i], want) {
				t.Fatalf("par %d record %d: %v, want %v", par, i, oc.Records[i], want)
			}
		}
		_, err = o.Apply(bad)
		if err == nil {
			t.Fatalf("par %d: unknown token accepted", par)
		}
		if first == nil {
			first, firstErr = oc, err.Error()
			if want := fmt.Sprintf("order: token %d outside ordered domain (|U|=%d)", 5000+applyChunk+5, o.Domain()); firstErr != want {
				t.Fatalf("error %q, want %q", firstErr, want)
			}
		} else if !reflect.DeepEqual(first, oc) || err.Error() != firstErr {
			t.Fatalf("par %d differs from par 1 (error %q vs %q)", par, err, firstErr)
		}
	}
}

// TestOrderingShuffleIsPostCombine pins what the ordering job shuffles to
// what a combiner leaves of one emission per token occurrence: one 20-byte
// record (4-byte key, 8-byte count, 8 bytes of framing) per distinct token
// of each map task's split.
func TestOrderingShuffleIsPostCombine(t *testing.T) {
	c := randomCollection(1000, 300, 20, 13)
	p := pipeline()
	if _, err := Compute(p, c); err != nil {
		t.Fatal(err)
	}
	m := p.Stages()[0]
	perReduce := make([]int64, m.ReduceTasks)
	var records int64
	base, rem, off := len(c.Records)/m.MapTasks, len(c.Records)%m.MapTasks, 0
	for task := 0; task < m.MapTasks; task++ {
		n := base
		if task < rem {
			n++
		}
		distinct := map[tokens.ID]bool{}
		for _, r := range c.Records[off : off+n] {
			for _, tok := range r.Tokens {
				if !distinct[tok] {
					distinct[tok] = true
					records++
					perReduce[mapreduce.DefaultPartitioner(spill.MakeKeyIndex(mapreduce.U32Key(tok), 0), m.ReduceTasks)] += 20
				}
			}
		}
		off += n
	}
	if m.ShuffleRecords != records || m.ShuffleBytes != 20*records || !reflect.DeepEqual(m.PerReduceBytes, perReduce) {
		t.Fatalf("shuffled %d records, %d bytes, per reducer %v; want %d, %d, %v",
			m.ShuffleRecords, m.ShuffleBytes, m.PerReduceBytes, records, 20*records, perReduce)
	}
}

func benchCollection() *tokens.Collection { return randomCollection(20000, 60000, 80, 21) }

func BenchmarkOrderCompute(b *testing.B) {
	c := benchCollection()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(pipeline(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderApply(b *testing.B) {
	c := benchCollection()
	o, err := Compute(pipeline(), c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Apply(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSumReducerFoldsUnboxed: the ordering job's reducer adds the same
// frequencies whether it is handed boxed counts or a []int64 to add into.
func TestSumReducerFoldsUnboxed(t *testing.T) {
	var input []mapreduce.KV
	for i := uint32(0); i < 3000; i++ {
		input = append(input, mapreduce.KV{Key: mapreduce.U32Key(i % 211), Value: int64(i%9 + 1)})
	}
	testutil.AssertTypedFoldAgrees(t, input, sumReducer{})
}

// typedGroups is the ordering job's reducer, failing t for any group its
// reduce task did not fold in a column of int64 counts: a group is folded
// so only when every partition the task fetched — in memory, or decoded
// out of a spill file — held its counts in one.
type typedGroups struct {
	sumReducer
	t *testing.T
}

func (r typedGroups) FinishGroup(ctx *mapreduce.Context, g *spill.Groups, i int) {
	if _, ok := spill.GroupAcc[int64](g, i); !ok {
		r.t.Errorf("group %d of a reduce task folded boxed: a partition's counts were not a column of int64", i)
	}
	r.sumReducer.FinishGroup(ctx, g, i)
}

// TestOrderingShuffleIsTyped: the ordering job's map tasks fill their
// partitions with int64 counts held in columns of int64, in memory and
// through a spill, and the order fromCounts reads typed out of a Feed
// result's columns is the order it reads out of a Run result's Output —
// for every kind, and the one ComputeKind returns.
func TestOrderingShuffleIsTyped(t *testing.T) {
	c := randomCollection(1500, 400, 30, 17)
	domain := int(c.MaxToken()) + 1
	for _, budget := range []int64{-1, 4096} {
		job := func(feed bool) *mapreduce.Result {
			p := pipeline()
			p.MemoryBudgetBytes = budget
			run := p.Run
			if feed {
				run = p.Feed
			}
			res, err := run(mapreduce.Config{Name: "ordering", SpillDir: t.TempDir()}, RecordsToKV(c),
				&denseCounter{domain: domain}, typedGroups{t: t})
			if err != nil {
				t.Fatal(err)
			}
			if budget > 0 && res.Counters.Get(mapreduce.CounterSpillRuns) == 0 {
				t.Fatalf("budget %d: nothing spilled", budget)
			}
			return res
		}
		ran := job(false)
		for _, kind := range []Kind{FreqAscending, FreqDescending, Lexicographic} {
			fed := job(true) // fromCounts consumes a Feed result: each read has its own
			if fed.Output != nil || ran.Output == nil {
				t.Fatalf("budget %d: Feed left %d records in Output, Run %d", budget, len(fed.Output), len(ran.Output))
			}
			typed, err := fromCounts(fed, domain, kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			boxed, err := fromCounts(ran, domain, kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(typed, boxed) {
				t.Fatalf("budget %d, %v: the typed read and Output disagree", budget, kind)
			}
			p := pipeline()
			p.MemoryBudgetBytes = budget
			computed, err := ComputeKind(p, c, kind)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(computed, typed) {
				t.Fatalf("budget %d, %v: ComputeKind disagrees with the job it runs", budget, kind)
			}
		}
	}
}

// cleanupAllocs is the ordering job's mapper, counting the heap
// allocations its Cleanup makes and the records it emits.
type cleanupAllocs struct {
	*denseCounter
	mallocs, records *uint64
}

func (m cleanupAllocs) Cleanup(ctx *mapreduce.Context) {
	*m.records += uint64(len(ctx.Local.(*tokenCounts).touched))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.denseCounter.Cleanup(ctx)
	runtime.ReadMemStats(&after)
	*m.mallocs += after.Mallocs - before.Mallocs
}

// TestCleanupAllocatesNothingPerRecord: a map task's Cleanup puts its
// counts into its partitions' columns as they are, so what it allocates
// is those columns' chunks, not a key string or a box a record. Every
// count is past the values Go keeps preallocated boxes for.
func TestCleanupAllocatesNothingPerRecord(t *testing.T) {
	const distinct, copies = 4000, 300
	ids := make([]tokens.ID, distinct)
	for i := range ids {
		ids[i] = tokens.ID(i)
	}
	c := &tokens.Collection{}
	for i := 0; i < copies; i++ {
		c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
	}
	var mallocs, records uint64
	m := cleanupAllocs{denseCounter: &denseCounter{domain: distinct}, mallocs: &mallocs, records: &records}
	if _, err := pipeline().Run(mapreduce.Config{Name: "ordering", MapTasks: 1, MemoryBudgetBytes: -1}, RecordsToKV(c), m, sumReducer{}); err != nil {
		t.Fatal(err)
	}
	t.Logf("Cleanup: %d allocations for %d records", mallocs, records)
	if records != distinct || mallocs*20 > records {
		t.Fatalf("Cleanup allocated %d times for %d records, want under one per 20", mallocs, records)
	}
}
