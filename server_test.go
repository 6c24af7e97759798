package fsjoin

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fsjoin/internal/frame"
	"fsjoin/internal/spill"
)

// servingCorpusOpts builds the mixed-algorithm chaos workload the serving
// acceptance criterion runs: n jobs over distinct seeded corpora, cycling
// algorithms and the chaos schedule matrix.
func servingCorpusOpts(n int) ([][]string, []Options) {
	algos := []Algorithm{FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight}
	schedules := chaosSchedules(n)
	texts := make([][]string, n)
	opts := make([]Options, n)
	for i := 0; i < n; i++ {
		texts[i] = corpus(36+4*i, int64(1000+i))
		opts[i] = Options{
			Threshold: 0.7,
			Algorithm: algos[i%len(algos)],
			Nodes:     3,
			Fault:     schedules[i],
		}
	}
	return texts, opts
}

// detServingStats is the budget-independent statistic slice compared
// between serving and sequential runs (spill counters legitimately differ:
// the server imposes leases the direct run does not).
type detServingStats struct {
	ShuffleRecords, ShuffleBytes, Candidates int64
	LoadImbalance                            float64
}

func detServing(s Stats) detServingStats {
	return detServingStats{
		ShuffleRecords: s.ShuffleRecords, ShuffleBytes: s.ShuffleBytes,
		Candidates: s.Candidates, LoadImbalance: s.LoadImbalance,
	}
}

// TestServerServingEquivalence is the acceptance criterion: 10 concurrent
// jobs — mixed algorithms, chaos injection enabled, all leasing from one
// 64 KiB global memory pool — produce byte-identical result sets to the
// same jobs run sequentially and directly.
func TestServerServingEquivalence(t *testing.T) {
	const jobs = 10
	texts, opts := servingCorpusOpts(jobs)

	// Sequential baseline: direct calls, no server, no budget.
	want := make([]*Result, jobs)
	for i := 0; i < jobs; i++ {
		res, err := SelfJoinStrings(texts[i], opts[i])
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		want[i] = res
	}

	srv, err := NewServer(ServerOptions{
		MemoryBudget:  64 << 10,
		MaxConcurrent: 4,
		MaxQueue:      jobs,
		SpillRoot:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	got := make([]*Result, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			coll := NewDictionary().NewTextCollection(texts[i])
			got[i], errs[i] = srv.Run(context.Background(), Job{
				Collection: coll,
				Options:    opts[i],
				Priority:   i % 3,
			})
		}(i)
	}
	wg.Wait()

	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("served job %d (%s): %v", i, opts[i].Algorithm, errs[i])
		}
		if !reflect.DeepEqual(got[i].Pairs, want[i].Pairs) {
			t.Fatalf("job %d (%s): served pairs differ from sequential (%d vs %d)",
				i, opts[i].Algorithm, len(got[i].Pairs), len(want[i].Pairs))
		}
		if g, w := detServing(got[i].Stats), detServing(want[i].Stats); g != w {
			t.Fatalf("job %d (%s): deterministic stats drifted\n got %+v\nwant %+v",
				i, opts[i].Algorithm, g, w)
		}
		if got[i].Stats.MemoryLease <= 0 {
			t.Fatalf("job %d: no memory lease recorded", i)
		}
	}
	st := srv.Stats()
	if st.Admitted != jobs || st.Completed != jobs || st.Failed != 0 {
		t.Fatalf("server stats = %+v, want %d admitted and completed", st, jobs)
	}
	if st.Running != 0 || st.MemoryInUse != 0 {
		t.Fatalf("pool not whole after all jobs returned: %+v", st)
	}
}

// TestServerDeadline pins the degradation contract's deadline clause: a
// job exceeding its deadline returns an error wrapping
// context.DeadlineExceeded, and the pool recovers its lease.
func TestServerDeadline(t *testing.T) {
	srv, err := NewServer(ServerOptions{MemoryBudget: 1 << 20, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	coll := NewDictionary().NewTextCollection(corpus(120, 5))
	_, err = srv.Run(context.Background(), Job{
		Collection: coll,
		Options:    Options{Threshold: 0.7, Nodes: 3},
		Deadline:   time.Nanosecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if st := srv.Stats(); st.MemoryInUse != 0 || st.Failed != 1 {
		t.Fatalf("stats after deadline = %+v", st)
	}
}

// blockingJob submits a job whose execution parks on the returned channel,
// holding its slot and lease until the channel is closed.
func blockingJob(t *testing.T, srv *Server, done *sync.WaitGroup) (release func()) {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	coll := NewDictionary().NewTextCollection(corpus(10, 3))
	done.Add(1)
	go func() {
		defer done.Done()
		_, err := srv.Run(context.Background(), Job{
			Collection:     coll,
			Options:        Options{Threshold: 0.7, Nodes: 2},
			testHookPreRun: func() { close(started); <-block },
		})
		if err != nil {
			t.Errorf("blocking job failed: %v", err)
		}
	}()
	<-started
	return func() { close(block) }
}

// TestServerLoadShedding pins the shed clauses: an impossible lease and a
// full queue both return ErrOverloaded, and a bounded queue wait returns
// ErrQueueTimeout — all without starting work.
func TestServerLoadShedding(t *testing.T) {
	srv, err := NewServer(ServerOptions{MemoryBudget: 1 << 16, MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	coll := NewDictionary().NewTextCollection(corpus(10, 4))

	if _, err := srv.Run(context.Background(), Job{
		Collection:  coll,
		Options:     Options{Threshold: 0.7},
		MemoryLease: 1 << 20, // exceeds the whole pool
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized lease: err = %v, want ErrOverloaded", err)
	}

	var running sync.WaitGroup
	release := blockingJob(t, srv, &running)
	// Queue disabled: anything not admitted immediately is shed.
	if _, err := srv.Run(context.Background(), Job{
		Collection: coll, Options: Options{Threshold: 0.7},
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	release()
	running.Wait()

	if st := srv.Stats(); st.Shed != 2 {
		t.Fatalf("shed = %d, want 2", st.Shed)
	}
}

// TestServerQueueTimeout bounds the admission wait.
func TestServerQueueTimeout(t *testing.T) {
	srv, err := NewServer(ServerOptions{MemoryBudget: 1 << 16, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	var running sync.WaitGroup
	release := blockingJob(t, srv, &running)
	coll := NewDictionary().NewTextCollection(corpus(10, 5))
	if _, err := srv.Run(context.Background(), Job{
		Collection:   coll,
		Options:      Options{Threshold: 0.7},
		QueueTimeout: 2 * time.Millisecond,
	}); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	release()
	running.Wait()
	if st := srv.Stats(); st.TimedOut != 1 {
		t.Fatalf("timed out = %d, want 1", st.TimedOut)
	}
}

// TestServerPanicIsolation pins the contract's isolation clause: a
// panicking job returns *JobError while a sibling running at the same time
// completes normally.
func TestServerPanicIsolation(t *testing.T) {
	srv, err := NewServer(ServerOptions{MemoryBudget: 1 << 20, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	texts := corpus(60, 21)
	opts := Options{Threshold: 0.7, Nodes: 3}
	want, err := SelfJoinStrings(texts, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var panicErr, siblingErr error
	var siblingRes *Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, panicErr = srv.Run(context.Background(), Job{
			Collection:     NewDictionary().NewTextCollection(texts),
			Options:        opts,
			Key:            "exploder",
			testHookPreRun: func() { panic("synthetic job crash") },
		})
	}()
	go func() {
		defer wg.Done()
		siblingRes, siblingErr = srv.Run(context.Background(), Job{
			Collection: NewDictionary().NewTextCollection(texts),
			Options:    opts,
		})
	}()
	wg.Wait()

	var je *JobError
	if !errors.As(panicErr, &je) {
		t.Fatalf("panicking job err = %v, want *JobError", panicErr)
	}
	if je.Job != "exploder" || je.Value != "synthetic job crash" || len(je.Stack) == 0 {
		t.Fatalf("JobError = {Job:%q Value:%v stack:%dB}", je.Job, je.Value, len(je.Stack))
	}
	if siblingErr != nil {
		t.Fatalf("sibling failed: %v", siblingErr)
	}
	if !reflect.DeepEqual(siblingRes.Pairs, want.Pairs) {
		t.Fatal("sibling results perturbed by the panicking job")
	}
	st := srv.Stats()
	if st.Panicked != 1 || st.Completed != 1 || st.MemoryInUse != 0 {
		t.Fatalf("stats = %+v, want 1 panicked, 1 completed, whole pool", st)
	}
}

// TestServerShutdownDrainsAndSweeps pins the drain contract: after
// Shutdown, queued jobs were rejected with ErrServerClosed, new jobs are
// too, and no spill or checkpoint temp files remain (durable checkpoints
// survive).
func TestServerShutdownDrainsAndSweeps(t *testing.T) {
	spillRoot, ckptRoot := t.TempDir(), t.TempDir()
	srv, err := NewServer(ServerOptions{
		MemoryBudget:   8 << 10,
		MaxConcurrent:  1,
		SpillRoot:      spillRoot,
		CheckpointRoot: ckptRoot,
	})
	if err != nil {
		t.Fatal(err)
	}
	texts := corpus(60, 33)
	opts := Options{Threshold: 0.7, Nodes: 3}

	// A keyed job that spills (tiny lease) and checkpoints.
	if _, err := srv.Run(context.Background(), Job{
		Collection:  NewDictionary().NewTextCollection(texts),
		Options:     opts,
		Key:         "durable-one",
		MemoryLease: 2 << 10,
	}); err != nil {
		t.Fatalf("keyed job: %v", err)
	}

	// Park a job on the only slot, queue another behind it, then shut
	// down: the queued one must be rejected closed, the running one must
	// finish.
	var running sync.WaitGroup
	release := blockingJob(t, srv, &running)
	queuedErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background(), Job{
			Collection: NewDictionary().NewTextCollection(texts),
			Options:    opts,
		})
		queuedErr <- err
	}()
	for srv.Stats().Queued == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Plant a stray checkpoint temp file, as a writer killed mid-save
	// would leave.
	stray := filepath.Join(ckptRoot, "durable-one", frame.TempPrefix+"stray")
	if err := os.WriteFile(stray, []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	if err := <-queuedErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("queued job err = %v, want ErrServerClosed", err)
	}
	release()
	running.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if _, err := srv.Run(context.Background(), Job{
		Collection: NewDictionary().NewTextCollection(texts),
		Options:    opts,
	}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-shutdown job err = %v, want ErrServerClosed", err)
	}

	// Sweep contract: no spill dirs, no checkpoint temps; durable
	// checkpoints still present.
	if ents, _ := os.ReadDir(spillRoot); len(ents) != 0 {
		t.Fatalf("spill root not swept: %v", names(ents))
	}
	durable := 0
	filepath.WalkDir(ckptRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), frame.TempPrefix) {
			t.Errorf("checkpoint temp survived shutdown: %s", path)
		} else {
			durable++
		}
		return nil
	})
	if durable == 0 {
		t.Fatal("durable checkpoints were swept away")
	}

	// The surviving checkpoints replay on a fresh server with the same
	// key, input and options.
	srv2, err := NewServer(ServerOptions{
		MemoryBudget: 8 << 10, CheckpointRoot: ckptRoot, SpillRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	res, err := srv2.Run(context.Background(), Job{
		Collection:  NewDictionary().NewTextCollection(texts),
		Options:     opts,
		Key:         "durable-one",
		MemoryLease: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CheckpointHits == 0 {
		t.Fatalf("resubmitted keyed job replayed nothing: %+v", res.Stats)
	}
}

// TestServerCheckpointKeys: under a CheckpointRoot a job's key is the name
// of its checkpoint directory. A key naming the root, its parent, a nested
// path or a name another key shares is refused before admission, with
// nothing written anywhere; a plain key checkpoints in root/key and its
// resubmission replays every stage.
func TestServerCheckpointKeys(t *testing.T) {
	parent := t.TempDir()
	root := filepath.Join(parent, "ckpt")
	srv, err := NewServer(ServerOptions{MemoryBudget: 1 << 20, CheckpointRoot: root, SpillRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	texts := corpus(40, 7)
	job := func(key string) Job {
		return Job{Collection: NewDictionary().NewTextCollection(texts), Options: Options{Threshold: 0.7}, Key: key}
	}
	files := func() []string {
		var out []string
		filepath.WalkDir(parent, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				out = append(out, path)
			}
			return err
		})
		return out
	}
	for _, key := range []string{"..", ".", "a/b", "a?b", "a\\b"} {
		if _, err := srv.Run(context.Background(), job(key)); err == nil {
			t.Errorf("key %q was accepted", key)
		}
	}
	if st := srv.Stats(); st.Admitted != 0 {
		t.Fatalf("a refused key was admitted: %+v", st)
	}
	if got := files(); len(got) != 0 {
		t.Fatalf("refused keys wrote %v", got)
	}

	first, err := srv.Run(context.Background(), job("job-3"))
	if err != nil {
		t.Fatal(err)
	}
	written := files()
	for _, path := range written {
		if filepath.Dir(path) != filepath.Join(root, "job-3") {
			t.Errorf("job-3 wrote %s", path)
		}
	}
	again, err := srv.Run(context.Background(), job("job-3"))
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(written)); n == 0 || first.Stats.CheckpointMisses != n ||
		again.Stats.CheckpointHits != n || again.Stats.CheckpointMisses != 0 {
		t.Fatalf("%d checkpoint files; first run %d misses, resubmission %d hits and %d misses",
			n, first.Stats.CheckpointMisses, again.Stats.CheckpointHits, again.Stats.CheckpointMisses)
	}
}

// TestServerShutdownCancelsRunning pins the impatient-drain path: once
// Shutdown's context expires, running jobs are cancelled mid-flight and
// return an error chaining to context.Canceled.
func TestServerShutdownCancelsRunning(t *testing.T) {
	srv, err := NewServer(ServerOptions{MemoryBudget: 1 << 20, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	coll := NewDictionary().NewTextCollection(corpus(600, 55))
	jobErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background(), Job{
			Collection: coll,
			Options:    Options{Threshold: 0.6, Nodes: 3},
		})
		jobErr <- err
	}()
	for srv.Stats().Running == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(expired); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-jobErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("running job err = %v, want context.Canceled", err)
	}
}

// TestServerShutdownDropsPooled: a Server that ran a join leaves nothing
// in the shuffle's free lists once it has shut down, on the drained path
// and on the cancelled one, so a long-running process that closes its
// Server gets that memory back.
func TestServerShutdownDropsPooled(t *testing.T) {
	for _, cancelled := range []bool{false, true} {
		srv, err := NewServer(ServerOptions{MemoryBudget: 1 << 20, MaxConcurrent: 1})
		if err != nil {
			t.Fatal(err)
		}
		job := Job{
			Collection: NewDictionary().NewTextCollection(corpus(200, 3)),
			Options:    Options{Threshold: 0.6, Nodes: 3},
		}
		if _, err := srv.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if spill.PooledBytes() == 0 {
			t.Fatal("the join gave nothing back to the shuffle's free lists")
		}
		ctx := context.Background()
		if cancelled {
			job.Collection = NewDictionary().NewTextCollection(corpus(600, 55))
			go srv.Run(context.Background(), job)
			for srv.Stats().Running == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			expired, cancel := context.WithCancel(ctx)
			cancel()
			ctx = expired
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("cancelled %v: shutdown: %v", cancelled, err)
		}
		if n := spill.PooledBytes(); n != 0 {
			t.Fatalf("cancelled %v: the free lists hold %d bytes after Shutdown, want 0", cancelled, n)
		}
	}
}

func names(ents []os.DirEntry) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name()
	}
	return out
}

// TestServerRSJoin: the R-S convenience entry goes through the same
// admission path as Run and matches the direct join exactly, rs counters
// included.
func TestServerRSJoin(t *testing.T) {
	texts := corpus(40, 17)
	dict := NewDictionary()
	r := dict.NewTextCollection(texts[:20])
	s := dict.NewTextCollection(texts[20:])
	opt := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	want, err := r.Join(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{MemoryBudget: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	got, err := srv.Join(context.Background(), r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatalf("served rs join differs: %d pairs vs %d", len(got.Pairs), len(want.Pairs))
	}
	if got.Stats.RSPairs != want.Stats.RSPairs || got.Stats.RSCandidates != want.Stats.RSCandidates {
		t.Fatalf("served rs counters differ: (%d,%d) vs (%d,%d)",
			got.Stats.RSCandidates, got.Stats.RSPairs,
			want.Stats.RSCandidates, want.Stats.RSPairs)
	}
}
