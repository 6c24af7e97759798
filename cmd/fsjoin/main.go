// Command fsjoin runs a set-similarity self-join or R-S join over text
// files, one record per line, printing the matching line-number pairs and
// their similarity scores.
//
// Usage:
//
//	fsjoin -theta 0.8 [-algo fs|fs-v|ridpairs|vsmart|massjoin|massjoin-light|approx]
//	       [-fn jaccard|dice|cosine] [-q N] [-nodes N] [-stats]
//	       [-checkpoint DIR [-resume]] [-skip-bad-records] [-rs] R.txt [S.txt]
//
// The bitmap signature filter is always on; the FSJOIN_BITMAP=off
// environment variable disables it for testing (DESIGN.md §11).
//
// With one input file a self-join is performed; with two, an R-S join:
// every output pair matches a line of R.txt (first column) with a line of
// S.txt (second column). All algorithms except the MassJoin baselines
// support R-S mode. -rs makes the intent explicit — it demands exactly two
// inputs, guarding scripts against an accidental self-join. Records are
// word-tokenised (lower-cased, split on non-alphanumerics) or q-gram
// tokenised with -q.
//
// Batch serving mode runs one self-join per input file concurrently
// through a fsjoin.Server sharing one memory pool:
//
//	fsjoin -serve [-serve-mem BYTES] [-serve-jobs N] [-serve-deadline D]
//	       [-serve-timeout D] -theta 0.8 a.txt b.txt c.txt ...
//
// Probe mode answers single-record queries against a persistent index of
// the corpus instead of running a full join per query. With -index-dir the
// index is loaded if a matching one was saved there, otherwise built and
// saved for the next run:
//
//	fsjoin -probe queries.txt [-index-dir DIR] -theta 0.8 corpus.txt
//
// Each output line is "query-line <TAB> corpus-line <TAB> similarity".
// With -index-dir, -wal-sync always|interval|never attaches a write-ahead
// log so acknowledged mutations survive crashes, and -auto-compact N makes
// the index fold its overlay into a fresh snapshot generation once it
// reaches N records (DESIGN.md §14).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"fsjoin"
	"fsjoin/internal/checkpoint"
	"fsjoin/internal/dataset"
	"fsjoin/internal/tokens"
)

func main() {
	var (
		theta  = flag.Float64("theta", 0.8, "similarity threshold in (0,1]")
		algo   = flag.String("algo", "fs", "algorithm: fs, fs-v, ridpairs, vsmart, massjoin, massjoin-light, approx")
		fn     = flag.String("fn", "jaccard", "similarity function: jaccard, dice, cosine")
		qgram  = flag.Int("q", 0, "q-gram length (0 = word tokenisation)")
		tsv    = flag.Bool("tsv", false, "inputs are datagen TSV files (rid<TAB>integer tokens) instead of text")
		nodes  = flag.Int("nodes", 10, "simulated cluster nodes")
		stats  = flag.Bool("stats", false, "print simulated execution statistics")
		budget = flag.Int64("budget", 0, "work budget for vsmart/massjoin (0 = unlimited)")
		par    = flag.Int("par", 0, "local task parallelism (0 = one worker per core, 1 = sequential)")
		ckpt   = flag.String("checkpoint", "", "directory for durable stage checkpoints (enables -resume)")
		resume = flag.Bool("resume", false, "reuse matching checkpoints from -checkpoint instead of starting fresh")
		skip   = flag.Bool("skip-bad-records", false, "quarantine records that deterministically crash a task instead of failing the join")
		maxSk  = flag.Int("max-skipped-records", 0, "abort after this many quarantined records (0 = default limit)")
		rs     = flag.Bool("rs", false, "require an R-S join: exactly two input files (implied when two files are given)")

		probe    = flag.String("probe", "", "probe mode: answer each record of this file against a persistent index of the corpus")
		indexDir = flag.String("index-dir", "", "probe mode: load the index from this directory if present, else build and save it there")
		walSync  = flag.String("wal-sync", "", "probe mode: attach a write-ahead log to the index with this fsync policy: always, interval, never (\"\" = no WAL)")
		walIvl   = flag.Duration("wal-sync-interval", 0, "probe mode: group-commit window for -wal-sync interval (0 = 100ms)")
		autoComp = flag.Int("auto-compact", 0, "probe mode: auto-compact the durable index when its overlay reaches this many records (0 = disabled; implies -wal-sync always)")

		serve         = flag.Bool("serve", false, "batch serving mode: one self-join per input file, run concurrently through a fsjoin.Server")
		serveMem      = flag.Int64("serve-mem", 64<<20, "serving: global memory pool in bytes, shared by all jobs")
		serveJobs     = flag.Int("serve-jobs", 0, "serving: max concurrent jobs (0 = one per core)")
		serveQueue    = flag.Int("serve-queue", 0, "serving: admission queue bound (0 = 16, negative = no queue)")
		serveDeadline = flag.Duration("serve-deadline", 0, "serving: per-job execution deadline (0 = none)")
		serveTimeout  = flag.Duration("serve-timeout", 0, "serving: per-job queue-wait bound (0 = wait indefinitely)")
	)
	flag.Parse()
	if flag.NArg() < 1 || (!*serve && flag.NArg() > 2) {
		fmt.Fprintln(os.Stderr, "usage: fsjoin [flags] R.txt [S.txt]   or   fsjoin -serve [flags] FILE...   or   fsjoin -probe Q.txt [-index-dir DIR] [flags] CORPUS.txt")
		flag.Usage()
		os.Exit(2)
	}

	if *resume && *ckpt == "" {
		fatal("-resume requires -checkpoint DIR")
	}
	if *rs && (*serve || flag.NArg() != 2) {
		fatal("-rs requires exactly two input files (got %d) and is incompatible with -serve", flag.NArg())
	}
	if *indexDir != "" && *probe == "" {
		fatal("-index-dir requires -probe")
	}
	if *probe != "" && (*serve || *rs || flag.NArg() != 1) {
		fatal("-probe takes exactly one corpus file and is incompatible with -serve and -rs")
	}
	if (*walSync != "" || *autoComp != 0) && *indexDir == "" {
		fatal("-wal-sync and -auto-compact require -probe with -index-dir")
	}
	opt := fsjoin.Options{Threshold: *theta, Nodes: *nodes, WorkBudget: *budget, LocalParallelism: *par, CheckpointDir: *ckpt}
	if *ckpt != "" && !*resume {
		// A fresh (non-resume) run must not reuse checkpoints left over
		// from an earlier invocation with different inputs.
		if st, err := checkpoint.Open(*ckpt); err != nil {
			fatal("%v", err)
		} else if err := st.Clear(); err != nil {
			fatal("%v", err)
		}
	}
	var quarantined []fsjoin.QuarantinedRecord
	if *skip {
		opt.Fault.SkipBadRecords = true
		opt.Fault.MaxSkippedRecords = *maxSk
		opt.Fault.OnQuarantine = func(r fsjoin.QuarantinedRecord) {
			quarantined = append(quarantined, r)
		}
	}
	switch *fn {
	case "jaccard":
		opt.Function = fsjoin.Jaccard
	case "dice":
		opt.Function = fsjoin.Dice
	case "cosine":
		opt.Function = fsjoin.Cosine
	default:
		fatal("unknown similarity function %q", *fn)
	}
	switch *algo {
	case "fs":
		opt.Algorithm = fsjoin.FSJoin
	case "fs-v":
		opt.Algorithm = fsjoin.FSJoinV
	case "ridpairs":
		opt.Algorithm = fsjoin.RIDPairsPPJoin
	case "vsmart":
		opt.Algorithm = fsjoin.VSmartJoin
	case "massjoin":
		opt.Algorithm = fsjoin.MassJoinMerge
	case "massjoin-light":
		opt.Algorithm = fsjoin.MassJoinMergeLight
	case "approx":
		opt.Algorithm = fsjoin.ApproxLSHJoin
	default:
		fatal("unknown algorithm %q", *algo)
	}

	var tk tokens.Tokenizer = tokens.WordTokenizer{}
	if *qgram > 0 {
		tk = tokens.QGramTokenizer{Q: *qgram}
	}

	dict := fsjoin.NewDictionary()
	loadSets := func(path string) [][]string {
		if *tsv {
			return readTSVSets(path)
		}
		return readTextSets(path, tk)
	}
	load := func(path string) *fsjoin.Collection {
		return dict.NewCollection(loadSets(path))
	}
	if *probe != "" {
		corpus := func() *fsjoin.Collection { return load(flag.Arg(0)) }
		runProbe(opt, corpus, loadSets(*probe), *indexDir, *stats,
			probeDurability{sync: *walSync, interval: *walIvl, autoCompact: *autoComp})
		return
	}
	if *serve {
		runServe(opt, load, serveConfig{
			mem: *serveMem, jobs: *serveJobs, queue: *serveQueue,
			deadline: *serveDeadline, timeout: *serveTimeout,
			checkpointRoot: *ckpt, stats: *stats,
		})
		return
	}
	r := load(flag.Arg(0))
	isRS := flag.NArg() == 2
	var res *fsjoin.Result
	var err error
	if isRS {
		s := load(flag.Arg(1))
		res, err = r.Join(s, opt)
	} else {
		res, err = r.SelfJoin(opt)
	}
	if err != nil {
		fatal("%v", err)
	}

	for _, p := range res.Pairs {
		fmt.Printf("%d\t%d\t%.4f\n", p.A, p.B, p.Similarity)
	}
	for _, q := range quarantined {
		fmt.Fprintf(os.Stderr, "fsjoin: quarantined record: job=%s phase=%s task=%d err=%s\n",
			q.Job, q.Phase, q.Task, q.Err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "pairs=%d simulated=%.1fs shuffle=%d records (%d bytes) imbalance=%.2f candidates=%d\n",
			len(res.Pairs), res.Stats.SimulatedTime.Seconds(),
			res.Stats.ShuffleRecords, res.Stats.ShuffleBytes,
			res.Stats.LoadImbalance, res.Stats.Candidates)
		fmt.Fprintf(os.Stderr, "bitmap built=%d rejected=%d passed=%d verified-candidates=%d\n",
			res.Stats.BitmapBuilt, res.Stats.BitmapRejected,
			res.Stats.BitmapPassed, res.Stats.VerifiedCandidates)
		if isRS {
			fmt.Fprintf(os.Stderr, "rs candidates=%d pairs=%d\n",
				res.Stats.RSCandidates, res.Stats.RSPairs)
		}
		// The shuffle peak is recorded only under a memory budget
		// (FSJOIN_MEMORY_BUDGET).
		if res.Stats.ShufflePeakBytes > 0 {
			fmt.Fprintf(os.Stderr, "spill runs=%d bytes=%d peak=%d\n",
				res.Stats.SpillRuns, res.Stats.SpillBytes, res.Stats.ShufflePeakBytes)
		}
		if *ckpt != "" || *skip {
			fmt.Fprintf(os.Stderr, "checkpoint hits=%d misses=%d skipped-records=%d\n",
				res.Stats.CheckpointHits, res.Stats.CheckpointMisses, res.Stats.RecordsSkipped)
		}
	}
}

// serveConfig carries the serving-mode knobs into runServe.
type serveConfig struct {
	mem            int64
	jobs           int
	queue          int
	deadline       time.Duration
	timeout        time.Duration
	checkpointRoot string
	stats          bool
}

// runServe self-joins every input file concurrently through one Server.
// Jobs share the options and the global memory pool; results print in
// input order, each under a "== path" header, with shed, timed-out and
// failed jobs reported per file instead of aborting the batch.
func runServe(opt fsjoin.Options, load func(string) *fsjoin.Collection, sc serveConfig) {
	// The per-job knobs move to the server; the shared options keep the
	// join semantics only.
	opt.CheckpointDir = ""
	srv, err := fsjoin.NewServer(fsjoin.ServerOptions{
		MemoryBudget:    sc.mem,
		MaxConcurrent:   sc.jobs,
		MaxQueue:        sc.queue,
		DefaultDeadline: sc.deadline,
		QueueTimeout:    sc.timeout,
		CheckpointRoot:  sc.checkpointRoot,
	})
	if err != nil {
		fatal("%v", err)
	}
	defer srv.Shutdown(context.Background())

	paths := flag.Args()
	type outcome struct {
		res *fsjoin.Result
		err error
		d   time.Duration
	}
	outs := make([]outcome, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		coll := load(path) // sequential: the dictionary is shared
		wg.Add(1)
		go func(i int, coll *fsjoin.Collection) {
			defer wg.Done()
			start := time.Now()
			job := fsjoin.Job{Collection: coll, Options: opt}
			if sc.checkpointRoot != "" {
				job.Key = fmt.Sprintf("job-%d", i)
			}
			res, err := srv.Run(context.Background(), job)
			outs[i] = outcome{res, err, time.Since(start)}
		}(i, coll)
	}
	wg.Wait()

	failed := 0
	for i, path := range paths {
		o := outs[i]
		if o.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "fsjoin: %s: %v\n", path, o.err)
			continue
		}
		fmt.Printf("== %s\n", path)
		for _, p := range o.res.Pairs {
			fmt.Printf("%d\t%d\t%.4f\n", p.A, p.B, p.Similarity)
		}
		if sc.stats {
			fmt.Fprintf(os.Stderr, "%s: pairs=%d wall=%s queue-wait=%s lease=%dB\n",
				path, len(o.res.Pairs), o.d.Round(time.Millisecond),
				o.res.Stats.QueueWait.Round(time.Millisecond), o.res.Stats.MemoryLease)
		}
	}
	if sc.stats {
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "server: admitted=%d completed=%d failed=%d shed=%d timed-out=%d peak-queue=%d\n",
			st.Admitted, st.Completed, st.Failed, st.Shed, st.TimedOut, st.PeakQueued)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// probeDurability carries the -wal-sync / -auto-compact flags into probe
// mode.
type probeDurability struct {
	sync        string
	interval    time.Duration
	autoCompact int
}

// enabled reports whether the run should attach a WAL to the index.
func (d probeDurability) enabled() bool { return d.sync != "" || d.autoCompact > 0 }

// options maps the flags onto the public Durability knobs.
func (d probeDurability) options() (fsjoin.Durability, error) {
	out := fsjoin.Durability{
		WALSyncInterval: d.interval,
		AutoCompact:     fsjoin.AutoCompact{MaxLogRecords: d.autoCompact},
	}
	switch d.sync {
	case "", "always":
		out.WALSync = fsjoin.WALSyncAlways
	case "interval":
		out.WALSync = fsjoin.WALSyncInterval
	case "never":
		out.WALSync = fsjoin.WALSyncNever
	default:
		return out, fmt.Errorf("unknown -wal-sync %q (want always, interval or never)", d.sync)
	}
	return out, nil
}

// runProbe serves every query record against a probe index of the corpus
// instead of running a full join per query. With a directory the index is
// loaded when a matching one was saved there — skipping the corpus read
// and the build entirely — and built-and-saved otherwise; a corrupt or
// mismatched save is rebuilt, never trusted. With -wal-sync/-auto-compact
// the index is made durable: a fresh snapshot generation is rolled forward
// and a write-ahead log attached, so a long-lived embedder of the same
// flow survives crashes between compactions.
func runProbe(opt fsjoin.Options, corpus func() *fsjoin.Collection, queries [][]string, dir string, stats bool, dur probeDurability) {
	iopt := fsjoin.IndexOptions{Threshold: opt.Threshold, Function: opt.Function}
	var ix *fsjoin.Index
	source := "loaded"
	if dir != "" {
		loaded, err := fsjoin.LoadIndex(dir, iopt)
		switch {
		case err == nil:
			ix = loaded
		case errors.Is(err, fsjoin.ErrNoIndex):
			// fall through to a fresh build
		default:
			fatal("%v", err)
		}
	}
	if ix == nil {
		built, err := fsjoin.BuildIndex(corpus(), iopt)
		if err != nil {
			fatal("%v", err)
		}
		ix, source = built, "built"
		if dir != "" && !dur.enabled() {
			if err := ix.Save(dir); err != nil {
				fatal("saving index: %v", err)
			}
			source = "built and saved"
		}
	}
	if dur.enabled() {
		dopt, err := dur.options()
		if err != nil {
			fatal("%v", err)
		}
		if err := ix.Persist(dir, dopt); err != nil {
			fatal("persisting index: %v", err)
		}
		defer func() {
			if err := ix.Close(); err != nil {
				fatal("closing index: %v", err)
			}
		}()
		source += ", durable"
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	matches := 0
	for qi, set := range queries {
		for _, m := range ix.Probe(set) {
			matches++
			fmt.Fprintf(w, "%d\t%d\t%.4f\n", qi, m.RID, m.Similarity)
		}
	}
	if stats {
		st := ix.Stats()
		fmt.Fprintf(os.Stderr, "index (%s): records=%d queries=%d matches=%d\n",
			source, st.Records, len(queries), matches)
		fmt.Fprintf(os.Stderr, "index.probes=%d index.candidates=%d index.hits=%d index.log.size=%d\n",
			st.Probes, st.Candidates, st.Hits, st.LogSize)
		fmt.Fprintf(os.Stderr, "wal.appends=%d wal.synced.bytes=%d wal.replayed=%d wal.truncated.frames=%d\n",
			st.WALAppends, st.WALSyncedBytes, st.WALReplayed, st.WALTruncatedFrames)
		fmt.Fprintf(os.Stderr, "index.compactions=%d index.compactions.auto=%d snapshot.bytes=%d index.generation=%d\n",
			st.Compactions, st.AutoCompactions, st.SnapshotBytes, st.Generation)
		for _, k := range []string{"corrupt", "stale", "invariant", "wal"} {
			if n := fsjoin.IndexLoadRejects()["index.load.rejects."+k]; n > 0 {
				fmt.Fprintf(os.Stderr, "index.load.rejects.%s=%d\n", k, n)
			}
		}
	}
}

// readTextSets reads one record per line from path and tokenises each line.
func readTextSets(path string, tk tokens.Tokenizer) [][]string {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	var sets [][]string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		sets = append(sets, tk.Tokenize(sc.Text()))
	}
	if err := sc.Err(); err != nil {
		fatal("reading %s: %v", path, err)
	}
	return sets
}

// readTSVSets reads a datagen-format TSV file; integer tokens become their
// decimal strings so text and TSV inputs can share one dictionary.
func readTSVSets(path string) [][]string {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	c, err := dataset.ReadTSV(f)
	if err != nil {
		fatal("reading %s: %v", path, err)
	}
	sets := make([][]string, 0, c.Len())
	for _, rec := range c.Records {
		set := make([]string, len(rec.Tokens))
		for i, tok := range rec.Tokens {
			set[i] = strconv.FormatUint(uint64(tok), 10)
		}
		sets = append(sets, set)
	}
	return sets
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fsjoin: "+format+"\n", args...)
	os.Exit(1)
}
