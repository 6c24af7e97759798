package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsjoin"
	"fsjoin/internal/tokens"
)

// A run sets the workload up at least minSetupReps times, and until the
// set-ups have taken setupSeconds or maxSetupReps are done, so that a short
// set-up is timed often; setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupSeconds = 1.5
)

// Shape of the two closed loops.
const (
	serveClients    = 2
	serveWarmupJobs = 20
	serveSampleJobs = 20
	// serveInputs collections are generated and served in turn. A
	// 500-record collection's cost depends on the seed (bytes allocated per
	// job vary by 8 % either way, the job time with them), and the driver
	// changes the seed with every run; a mean over eight inputs varies a
	// third as much.
	serveInputs    = 8
	probeBatch     = 1000 // ops between Maintain calls
	probeSampleOps = compactAt * writeEvery
	writeEvery     = 10   // every tenth operation is an Insert or a Delete
	compactAt      = 2000 // AutoCompact.MaxLogRecords
	// liveInserts inserted records are kept live: the one a Delete removes
	// was inserted two overlay fills ago, so a compaction has folded it into
	// the base since and its tombstone counts towards the next compaction.
	liveInserts = compactAt
)

// state is one workload set up and ready to be measured.
type state struct {
	w   workload
	in  *input
	r   *fsjoin.Collection
	s   *fsjoin.Collection
	srv *fsjoin.Server
	ix  *fsjoin.Index
	dir string
	// served holds serve_smalljobs' inputs and collections; the first is in
	// and r.
	served []servedInput
}

type servedInput struct {
	in *input
	r  *fsjoin.Collection
}

// setup is everything a user does before the first measured call: generate
// and render the input, intern it, and start the server or build and
// persist the index.
func setup(w workload, seed int64, scale float64, tmp string) (*state, error) {
	st := &state{w: w, in: generate(w, seed, scale)}
	st.r, st.s = st.in.collections()
	switch w.kind {
	case kindServe:
		srv, err := fsjoin.NewServer(fsjoin.ServerOptions{MemoryBudget: 1 << 30, MaxConcurrent: serveClients})
		if err != nil {
			return nil, err
		}
		st.srv = srv
		st.served = []servedInput{{st.in, st.r}}
		for i := 1; i < serveInputs; i++ {
			in := generate(w, seed+int64(i)*1_000_003, scale)
			r, _ := in.collections()
			st.served = append(st.served, servedInput{in, r})
		}
	case kindProbe:
		ix, err := fsjoin.BuildIndex(st.r, fsjoin.IndexOptions{Threshold: w.opt.Threshold})
		if err != nil {
			return nil, err
		}
		st.ix = ix
		dir, err := os.MkdirTemp(tmp, "index-")
		if err != nil {
			return nil, err
		}
		st.dir = dir
		err = ix.Persist(dir, fsjoin.Durability{
			WALSync:     fsjoin.WALSyncInterval,
			AutoCompact: fsjoin.AutoCompact{MaxLogRecords: compactAt},
		})
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *state) close() {
	if st.srv != nil {
		st.srv.Shutdown(context.Background())
	}
	if st.ix != nil {
		st.ix.Close()
		os.RemoveAll(st.dir)
	}
}

func (st *state) join(opt fsjoin.Options) (*fsjoin.Result, error) {
	if st.s != nil {
		return st.r.Join(st.s, opt)
	}
	return st.r.SelfJoin(opt)
}

// timedSetup sets the workload up repeatedly and keeps the last.
func timedSetup(w workload, seed int64, scale float64, tmp string) (*state, float64, error) {
	var st *state
	var secs []float64
	for len(secs) < minSetupReps || (sum(secs) < setupSeconds && len(secs) < maxSetupReps) {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if st, err = setup(w, seed, scale, tmp); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return st, median(secs), nil
}

// sample is one equal-sized piece of a measured loop: one join call,
// serveSampleJobs served jobs, or probeSampleOps mixed operations.
type sample struct {
	seconds float64   // wall time the piece took
	ops     int       // operations it completed
	lat     []float64 // latency in ms of each primary operation in it
	rssMB   float64   // the process's peak resident set while it ran
}

// loopStats is what one measured loop reports, in the end-to-end metrics'
// units.
type loopStats struct {
	p50ms, tailms float64
	opsPerS       float64
	allocMBPerOp  float64
	peakRSSMB     float64
	ops           int
}

// quietShare is the share of a loop's samples its timings are taken from:
// the samples that took the least time per operation. The host's other
// tenants only ever add time, in episodes that outlast a sample and often
// end within a run, so the fastest samples are the ones they touched least.
// README.md (Noise) has the measurements behind the choice.
const quietShare = 0.1

// summarise turns a loop's samples into its figures. The median and the
// tailQ-quantile of the latencies and the operations per second are those of
// the quietShare fastest samples, pooled. The peak resident set is the median
// of every sample's peak (a single maximum over the process is the least
// steady of statistics: on serve_smalljobs it spreads 26% between runs, the
// median of sample peaks 7%). It also prints each sample's time per
// operation.
func summarise(name string, samples []sample, tailQ float64) loopStats {
	pace := func(s sample) float64 { return s.seconds / float64(s.ops) }
	var rss []float64
	var paces []string
	ls := loopStats{}
	for _, s := range samples {
		rss = append(rss, s.rssMB)
		paces = append(paces, strconv.FormatFloat(pace(s)*1e3, 'f', 4, 64))
		ls.ops += s.ops
	}
	quiet := slices.Clone(samples)
	slices.SortFunc(quiet, func(a, b sample) int { return cmp.Compare(pace(a), pace(b)) })
	quiet = quiet[:int(math.Ceil(quietShare*float64(len(quiet))))]
	var lat []float64
	var secs float64
	ops := 0
	for _, s := range quiet {
		lat = append(lat, s.lat...)
		secs += s.seconds
		ops += s.ops
	}
	sort.Float64s(lat)
	ls.p50ms, ls.tailms = median(lat), quantile(lat, tailQ)
	ls.opsPerS, ls.peakRSSMB = float64(ops)/secs, median(rss)
	if tailQ == 0.5 {
		// Too few calls for any percentile above the median to have ten
		// samples beyond it: the tail repeats the median, and -compare
		// judges it once (derivedFrom).
		ls.tailms = ls.p50ms
	}
	fmt.Printf("%s op.samples %d count\n%s op.quiet_samples %d count\n%s op.sample_ms_per_op %s list\n",
		name, len(samples), name, len(quiet), name, strings.Join(paces, ","))
	return ls
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// measureJoin times repeated calls of the public join for the given number
// of seconds, after one discarded warm-up call, and runs the correctness
// gate on the result. Each call is one sample.
func measureJoin(g *gate, st *state, seed int64, seconds float64, minReps int) (loopStats, error) {
	var samples []sample
	var allocs []float64
	var first uint64
	var last *fsjoin.Result
	start := time.Now()
	for rep := -1; len(samples) < minReps || time.Since(start).Seconds() < seconds; rep++ {
		runtime.GC()
		a0 := totalAlloc()
		resetPeakRSS()
		t := time.Now()
		res, err := st.join(st.w.opt)
		wall := time.Since(t).Seconds()
		rss := peakRSSMB()
		if err != nil {
			return loopStats{}, err
		}
		d := digest(res.Pairs)
		if rep < 0 {
			first, last, start = d, res, time.Now()
			continue
		}
		samples = append(samples, sample{seconds: wall, ops: 1, lat: []float64{wall * 1e3}, rssMB: rss})
		allocs = append(allocs, float64(totalAlloc()-a0)/1e6)
		g.check(d == first, "rep %d: result digest %x differs from the first rep's %x", rep, d, first)
	}
	checkJoin(g, st.in, st.w.opt.Threshold, last.Pairs, seed)
	fmt.Printf("%s join.pairs %d count\n", st.w.name, len(last.Pairs))
	ls := summarise(st.w.name, samples, 0.5)
	ls.allocMBPerOp = median(allocs)
	return ls, nil
}

// measureServe sends small self-joins, over the served collections in turn,
// from serveClients closed-loop clients through the Server for the given
// number of seconds. Every serveSampleJobs completions, in completion order,
// make one sample.
func measureServe(g *gate, st *state, seed int64, seconds float64) (loopStats, error) {
	want := make([]uint64, len(st.served))
	for i, sv := range st.served {
		ref, err := sv.r.SelfJoin(st.w.opt)
		if err != nil {
			return loopStats{}, err
		}
		checkJoin(g, sv.in, st.w.opt.Threshold, ref.Pairs, seed)
		want[i] = digest(ref.Pairs)
	}
	var sent atomic.Int64
	job := func() (time.Duration, bool) {
		i := int(sent.Add(1)) % len(st.served)
		t := time.Now()
		res, err := st.srv.SelfJoin(context.Background(), st.served[i].r, st.w.opt)
		return time.Since(t), err == nil && digest(res.Pairs) == want[i]
	}
	for i := 0; i < serveWarmupJobs; i++ {
		job()
	}
	runtime.GC()
	type done struct{ end, lat float64 }
	var (
		mu   sync.Mutex
		jobs []done
		rss  []float64 // peak of each completed sample
		bad  int
		wg   sync.WaitGroup
	)
	a0 := totalAlloc()
	resetPeakRSS()
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds {
				d, ok := job()
				mu.Lock()
				jobs = append(jobs, done{time.Since(start).Seconds(), d.Seconds() * 1e3})
				if len(jobs)%serveSampleJobs == 0 {
					rss = append(rss, peakRSSMB())
					resetPeakRSS()
				}
				if !ok {
					bad++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	alloc := float64(totalAlloc()-a0) / 1e6
	g.attempted += int64(len(jobs))
	g.failed += int64(bad)
	if bad > 0 {
		g.notes = append(g.notes, fmt.Sprintf("%d served jobs failed or returned a different result", bad))
	}
	var samples []sample
	begin := 0.0
	for i := 0; i+serveSampleJobs <= len(jobs); i += serveSampleJobs {
		s := sample{seconds: jobs[i+serveSampleJobs-1].end - begin, ops: serveSampleJobs, rssMB: rss[i/serveSampleJobs]}
		for _, j := range jobs[i : i+serveSampleJobs] {
			s.lat = append(s.lat, j.lat)
		}
		begin += s.seconds
		samples = append(samples, s)
	}
	if len(samples) == 0 {
		return loopStats{}, fmt.Errorf("%s: the loop completed only %d jobs", st.w.name, len(jobs))
	}
	ls := summarise(st.w.name, samples, 0.95)
	ls.allocMBPerOp = alloc / float64(len(jobs))
	return ls, nil
}

// mixedOps drives the probe_mixed operation stream. Nine operations in ten
// probe a random base record's own set; every tenth is a durable write: an
// Insert of a fresh near-duplicate of a base record or, alternately once
// liveInserts of them are live, a Delete of the oldest. The index therefore
// keeps its size, every probeSampleOps operations fill the overlay once and
// trigger exactly one compaction, and every sample does the same work. (With
// inserts alone the index grows 2.8-fold in ten seconds and the time per
// operation drifts from 0.024 to 0.033 ms.) Maintain is called every
// probeBatch operations.
type mixedOps struct {
	st    *state
	rng   *rand.Rand
	fresh uint32
	// inserted holds the live inserted records, oldest first.
	inserted []tokens.Record
	ops      int
	writes   int
}

func newMixedOps(st *state, seed int64) *mixedOps {
	return &mixedOps{st: st, rng: rand.New(rand.NewSource(seed)), fresh: st.in.idsR.MaxToken() + 1}
}

func render(ids []tokens.ID) []string {
	set := make([]string, len(ids))
	for i, t := range ids {
		set[i] = tokenName(t)
	}
	return set
}

// nearDuplicate copies a random base record, replacing about one token in
// twenty with a token no record has seen.
func (m *mixedOps) nearDuplicate() []tokens.ID {
	base := m.st.in.idsR.Records[m.rng.Intn(m.st.in.records)].Tokens
	ids := make([]tokens.ID, len(base))
	for i, t := range base {
		if m.rng.Intn(20) == 0 {
			t = m.fresh
			m.fresh++
		}
		ids[i] = t
	}
	return ids
}

// next runs one operation and returns its latency and whether it was a
// write. A probe of an indexed record's own set must at least find that
// record.
func (m *mixedOps) next(g *gate) (time.Duration, bool) {
	m.ops++
	if m.ops%probeBatch == 0 {
		err := m.st.ix.Maintain()
		g.check(err == nil, "Maintain: %v", err)
	}
	if m.ops%writeEvery != 0 {
		set := m.st.in.r[m.rng.Intn(m.st.in.records)]
		t := time.Now()
		ms := m.st.ix.Probe(set)
		d := time.Since(t)
		g.check(len(ms) > 0, "Probe of an indexed record's set found nothing")
		return d, false
	}
	m.writes++
	if len(m.inserted) >= liveInserts && m.writes%2 == 0 {
		t := time.Now()
		err := m.st.ix.Delete(int(m.inserted[0].RID))
		d := time.Since(t)
		g.check(err == nil, "Delete: %v", err)
		m.inserted = m.inserted[1:]
		return d, true
	}
	ids := m.nearDuplicate()
	set := render(ids)
	t := time.Now()
	rid, err := m.st.ix.Insert(set)
	d := time.Since(t)
	g.check(err == nil, "Insert: %v", err)
	m.inserted = append(m.inserted, tokens.NewRecord(int32(rid), ids))
	return d, true
}

// verify compares probeSampleSize probes of live records, base and
// inserted, with a brute-force scan.
func (m *mixedOps) verify(g *gate, seed int64) {
	live := &tokens.Collection{Records: append(append([]tokens.Record{}, m.st.in.idsR.Records...), m.inserted...)}
	var probes []tokens.Record
	var sets [][]string
	for _, i := range sampleRIDs(probeSampleSize, live.Len(), seed) {
		probes = append(probes, live.Records[i])
		sets = append(sets, render(live.Records[i].Tokens))
	}
	checkProbes(g, m.st.ix, live, probes, sets, m.st.w.opt.Threshold)
}

// measureProbe runs the mixed operation stream from one closed-loop client
// for the given number of seconds. probeSampleOps operations, one compaction
// cycle, make one sample; its latencies are those of its probes.
func measureProbe(g *gate, st *state, seed int64, seconds float64) (loopStats, error) {
	m := newMixedOps(st, seed)
	for i := 0; i < probeSampleOps; i++ { // warm-up: one compaction cycle
		m.next(g)
	}
	runtime.GC()
	var samples []sample
	var writes []float64
	a0 := totalAlloc()
	start := time.Now()
	for len(samples) == 0 || time.Since(start).Seconds() < seconds {
		s := sample{ops: probeSampleOps}
		resetPeakRSS()
		t := time.Now()
		for i := 0; i < probeSampleOps; i++ {
			d, write := m.next(g)
			if write {
				writes = append(writes, float64(d.Nanoseconds())/1e3)
			} else {
				s.lat = append(s.lat, float64(d.Nanoseconds())/1e6)
			}
		}
		s.seconds = time.Since(t).Seconds()
		s.rssMB = peakRSSMB()
		samples = append(samples, s)
	}
	alloc := float64(totalAlloc()-a0) / 1e6
	m.verify(g, seed)
	sort.Float64s(writes)
	stats := st.ix.Stats()
	fmt.Printf("%s probe.write_p50_us %.3f us\n%s probe.compactions %d count\n%s probe.live_records %d count\n",
		st.w.name, quantile(writes, 0.5), st.w.name, stats.Compactions, st.w.name, stats.Records)
	ls := summarise(st.w.name, samples, 0.99)
	ls.allocMBPerOp = alloc / float64(ls.ops)
	return ls, nil
}

// runEndToEnd is the untraced run: it measures the workload only through
// the public API and reports every end-to-end metric.
func runEndToEnd(w workload, cfg config, tmp string) (*runResult, error) {
	seed, seconds := cfg.seed, cfg.seconds
	st, setupS, err := timedSetup(w, seed, cfg.scale, tmp)
	if err != nil {
		return nil, err
	}
	defer st.close()
	fmt.Printf("%s input.records %d count\n%s input.tokens %d count\n", w.name, st.in.records, w.name, st.in.tokens)
	g := &gate{}
	var ls loopStats
	switch w.kind {
	case kindJoin:
		ls, err = measureJoin(g, st, seed, seconds, cfg.minReps)
	case kindServe:
		ls, err = measureServe(g, st, seed, seconds)
	case kindProbe:
		ls, err = measureProbe(g, st, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	res := newRunResult()
	res.judge(g)
	res.set("setup_s", setupS)
	res.set("op_p50_ms", ls.p50ms)
	res.set("op_tail_ms", ls.tailms)
	res.set("ops_per_s", ls.opsPerS)
	res.set("alloc_mb_per_op", ls.allocMBPerOp)
	res.set("peak_rss_mb", ls.peakRSSMB)
	return res, nil
}

// resetPeakRSS lowers this process's resident-set high-water mark to its
// current resident set, so that the next peakRSSMB is the peak since now.
// Where the kernel refuses, peaks are those of the whole process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// workDir creates the run's private scratch directory under out and points
// TMPDIR at it, so spill files, the server's spill root and the index all
// stay inside the checkout.
func workDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(out)
	if err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(abs, "tmp-")
	if err != nil {
		return "", err
	}
	return tmp, os.Setenv("TMPDIR", tmp)
}
