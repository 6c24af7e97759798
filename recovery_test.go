package fsjoin

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fsjoin/internal/frame"
	"fsjoin/internal/mapreduce"
)

// jobRecorder is a fault-free injector that records the distinct job names
// a run executes, in order — how the crash matrix below discovers every
// stage of an algorithm without knowing its internals.
type jobRecorder struct {
	mu   sync.Mutex
	seen map[string]bool
	jobs []string
}

func (r *jobRecorder) Decide(job string, phase mapreduce.Phase, task, attempt int) mapreduce.Fault {
	r.mu.Lock()
	if !r.seen[job] {
		if r.seen == nil {
			r.seen = map[string]bool{}
		}
		r.seen[job] = true
		r.jobs = append(r.jobs, job)
	}
	r.mu.Unlock()
	return mapreduce.Fault{}
}

// jobKiller fails every real map attempt of one named job — a crash at
// that pipeline stage.
type jobKiller struct{ job string }

func (k jobKiller) Decide(job string, phase mapreduce.Phase, task, attempt int) mapreduce.Fault {
	if job == k.job && phase == mapreduce.PhaseMap && attempt < mapreduce.ProbeAttempt {
		return mapreduce.Fault{Kind: mapreduce.FaultError, Msg: "injected crash"}
	}
	return mapreduce.Fault{}
}

// recoveryMatrix is every algorithm crossed with FS-Join's fragment join
// kernels, plus every R-S-capable algorithm in R-S mode.
func recoveryMatrix() []struct {
	name string
	opt  Options
	rs   bool
} {
	base := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	mk := func(name string, algo Algorithm, jm JoinMethod, rs bool) struct {
		name string
		opt  Options
		rs   bool
	} {
		o := base
		o.Algorithm = algo
		o.JoinMethod = jm
		return struct {
			name string
			opt  Options
			rs   bool
		}{name, o, rs}
	}
	return []struct {
		name string
		opt  Options
		rs   bool
	}{
		mk("fs-prefix", FSJoin, PrefixJoin, false),
		mk("fs-index", FSJoin, IndexJoin, false),
		mk("fs-loop", FSJoin, LoopJoin, false),
		mk("fs-v", FSJoinV, PrefixJoin, false),
		mk("ridpairs", RIDPairsPPJoin, PrefixJoin, false),
		mk("vsmart", VSmartJoin, PrefixJoin, false),
		mk("massjoin", MassJoinMerge, PrefixJoin, false),
		mk("massjoin-light", MassJoinMergeLight, PrefixJoin, false),
		mk("approx", ApproxLSHJoin, PrefixJoin, false),
		mk("fs-rs", FSJoin, PrefixJoin, true),
		mk("fs-v-rs", FSJoinV, PrefixJoin, true),
		mk("ridpairs-rs", RIDPairsPPJoin, PrefixJoin, true),
		mk("vsmart-rs", VSmartJoin, PrefixJoin, true),
		mk("approx-rs", ApproxLSHJoin, PrefixJoin, true),
	}
}

// runMatrixJoin executes one matrix entry: a self-join, or an R-S join
// over two halves of the corpus.
func runMatrixJoin(texts []string, opt Options, rs bool) (*Result, error) {
	if !rs {
		return SelfJoinStrings(texts, opt)
	}
	dict := NewDictionary()
	tok := func(ts []string) [][]string {
		out := make([][]string, len(ts))
		for i, t := range ts {
			out[i] = strings.Fields(t)
		}
		return out
	}
	r := dict.NewCollection(tok(texts[:len(texts)/2]))
	s := dict.NewCollection(tok(texts[len(texts)/2:]))
	return r.Join(s, opt)
}

// TestCrashResumeEquivalence is the acceptance suite for checkpoint
// durability: for every algorithm × join method, kill the run at each
// stage boundary, resume with the same checkpoint directory, and demand
// the resumed run (a) replays exactly the completed stages and (b) is
// byte-identical — pairs and deterministic statistics — to an
// uninterrupted run.
func TestCrashResumeEquivalence(t *testing.T) {
	texts := corpus(40, 7)
	type detStats struct {
		ShuffleRecords, ShuffleBytes, Candidates int64
	}
	det := func(s Stats) detStats {
		return detStats{s.ShuffleRecords, s.ShuffleBytes, s.Candidates}
	}
	for _, m := range recoveryMatrix() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			want, err := runMatrixJoin(texts, m.opt, m.rs)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}

			// Discover the pipeline's stages.
			rec := &jobRecorder{}
			opt := m.opt
			opt.Fault.injector = rec
			if _, err := runMatrixJoin(texts, opt, m.rs); err != nil {
				t.Fatalf("recording run: %v", err)
			}
			if len(rec.jobs) < 2 {
				t.Fatalf("recorded only %d stages (%v) — matrix entry proves nothing", len(rec.jobs), rec.jobs)
			}

			for k, job := range rec.jobs {
				dir := t.TempDir()

				// Crash at stage k: stages before it complete and checkpoint.
				crash := m.opt
				crash.CheckpointDir = dir
				crash.Fault.injector = jobKiller{job: job}
				crash.Fault.MaxAttempts = 2
				if _, err := runMatrixJoin(texts, crash, m.rs); err == nil {
					t.Fatalf("stage %d (%s): injected crash did not fail the join", k, job)
				} else if !strings.Contains(err.Error(), "injected crash") {
					t.Fatalf("stage %d (%s): failed with %v, want the injected crash", k, job, err)
				}

				// Resume fault-free from the same directory.
				resume := m.opt
				resume.CheckpointDir = dir
				got, err := runMatrixJoin(texts, resume, m.rs)
				if err != nil {
					t.Fatalf("stage %d (%s): resume: %v", k, job, err)
				}
				if !reflect.DeepEqual(got.Pairs, want.Pairs) {
					t.Fatalf("stage %d (%s): resumed pairs differ (%d vs %d)",
						k, job, len(got.Pairs), len(want.Pairs))
				}
				if g, w := det(got.Stats), det(want.Stats); g != w {
					t.Fatalf("stage %d (%s): resumed stats differ\n got %+v\nwant %+v", k, job, g, w)
				}
				if got.Stats.CheckpointHits != int64(k) {
					t.Errorf("stage %d (%s): resume replayed %d stages, want %d",
						k, job, got.Stats.CheckpointHits, k)
				}
				if wantMiss := int64(len(rec.jobs) - k); got.Stats.CheckpointMisses != wantMiss {
					t.Errorf("stage %d (%s): resume executed %d stages, want %d",
						k, job, got.Stats.CheckpointMisses, wantMiss)
				}
			}

			// Full replay: a spilling run persists every stage, then a run
			// without a budget replays all of them, the last included. The
			// values a stage shuffles cross spill runs and the values it
			// emits a checkpoint, so a codec that decodes wrongly changes the
			// pairs or the replayed stage count here. The corpus is larger
			// than the crash legs' so that every stage that shuffles a value
			// of its own type spills it at 1 KiB (minhash's verify job is
			// the last to).
			big := corpus(200, 7)
			want, err = runMatrixJoin(big, m.opt, m.rs)
			if err != nil {
				t.Fatalf("full replay: baseline: %v", err)
			}
			dir := t.TempDir()
			spilled := m.opt
			spilled.CheckpointDir = dir
			spilled.MemoryBudget = 1 << 10
			first, err := runMatrixJoin(big, spilled, m.rs)
			if err != nil {
				t.Fatalf("full replay: spilling run: %v", err)
			}
			if first.Stats.SpillRuns == 0 {
				t.Fatal("full replay: the spilling run wrote no spill run")
			}
			replay := m.opt
			replay.CheckpointDir = dir
			got, err := runMatrixJoin(big, replay, m.rs)
			if err != nil {
				t.Fatalf("full replay: %v", err)
			}
			if got.Stats.CheckpointHits != int64(len(rec.jobs)) {
				t.Errorf("full replay replayed %d stages, want %d", got.Stats.CheckpointHits, len(rec.jobs))
			}
			for _, r := range []*Result{first, got} {
				if !reflect.DeepEqual(r.Pairs, want.Pairs) {
					t.Fatalf("full replay: pairs differ from the baseline (%d vs %d)", len(r.Pairs), len(want.Pairs))
				}
			}
		})
	}
}

// TestResumeAfterMidStageKill models a writer dying mid-save: the
// checkpoint directory holds completed stages plus a partial temp file.
// The temp file must be swept, never loaded, and the resume exact.
func TestResumeAfterMidStageKill(t *testing.T) {
	texts := corpus(40, 7)
	opt := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	want, err := SelfJoinStrings(texts, opt)
	if err != nil {
		t.Fatal(err)
	}

	rec := &jobRecorder{}
	o := opt
	o.Fault.injector = rec
	if _, err := SelfJoinStrings(texts, o); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crash := opt
	crash.CheckpointDir = dir
	crash.Fault.injector = jobKiller{job: rec.jobs[1]}
	crash.Fault.MaxAttempts = 2
	if _, err := SelfJoinStrings(texts, crash); err == nil {
		t.Fatal("injected crash did not fail the join")
	}
	// The "mid-stage" part: a partial write the dying stage left behind.
	tmp := filepath.Join(dir, frame.TempPrefix+"partial")
	if err := os.WriteFile(tmp, []byte("torn stage output"), 0o600); err != nil {
		t.Fatal(err)
	}

	resume := opt
	resume.CheckpointDir = dir
	got, err := SelfJoinStrings(texts, resume)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatal("resume after mid-stage kill produced different pairs")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("partial checkpoint temp file survived the resume")
	}
}

// TestResumeRejectsCorruptCheckpoint corrupts a persisted stage and
// asserts the next run recomputes it rather than trusting the bytes.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	texts := corpus(40, 7)
	dir := t.TempDir()
	opt := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1, CheckpointDir: dir}
	want, err := SelfJoinStrings(texts, opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoints written: %v (%v)", files, err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/3] ^= 0x80
		if err := os.WriteFile(f, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	got, err := SelfJoinStrings(texts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatal("run over corrupt checkpoints produced different pairs")
	}
	if got.Stats.CheckpointHits != 0 {
		t.Errorf("corrupt checkpoints replayed: %d hits", got.Stats.CheckpointHits)
	}
}

// TestCheckpointSaltCoversOptions: the same directory reused with a
// different threshold must recompute — never replay the old answer.
func TestCheckpointSaltCoversOptions(t *testing.T) {
	texts := corpus(40, 7)
	dir := t.TempDir()
	a := Options{Threshold: 0.9, Nodes: 3, LocalParallelism: 1, CheckpointDir: dir}
	if _, err := SelfJoinStrings(texts, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Threshold = 0.6
	got, err := SelfJoinStrings(texts, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.CheckpointHits != 0 {
		t.Fatalf("replayed %d stages across a threshold change", got.Stats.CheckpointHits)
	}
	clean, err := SelfJoinStrings(texts, Options{Threshold: 0.6, Nodes: 3, LocalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, clean.Pairs) {
		t.Fatal("threshold change over a reused directory produced wrong pairs")
	}
}

// recordPoisoner injects a FaultRecordPanic on the first record of map
// task 0 of one job (or of every job when job is empty) — the public-API
// poison-record scenario.
type recordPoisoner struct {
	job      string
	allTasks bool
}

func (p recordPoisoner) Decide(job string, phase mapreduce.Phase, task, attempt int) mapreduce.Fault {
	if phase != mapreduce.PhaseMap {
		return mapreduce.Fault{}
	}
	if p.job != "" && job != p.job {
		return mapreduce.Fault{}
	}
	if !p.allTasks && task != 0 {
		return mapreduce.Fault{}
	}
	return mapreduce.Fault{Kind: mapreduce.FaultRecordPanic, Record: 0, Msg: "poisoned input record"}
}

// TestSkipBadRecordsPublicAPI poisons one record of the first stage and
// asserts the public skip knobs complete the join, report exactly the
// quarantined record, and emit only pairs the clean run also found
// (verification keeps skipped runs sound: every reported similarity is
// real, so skipping input can only lose pairs, never invent them).
func TestSkipBadRecordsPublicAPI(t *testing.T) {
	texts := corpus(40, 7)
	base := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	want, err := SelfJoinStrings(texts, base)
	if err != nil {
		t.Fatal(err)
	}
	rec := &jobRecorder{}
	o := base
	o.Fault.injector = rec
	if _, err := SelfJoinStrings(texts, o); err != nil {
		t.Fatal(err)
	}

	var quarantined []QuarantinedRecord
	opt := base
	opt.Fault.injector = recordPoisoner{job: rec.jobs[0]}
	opt.Fault.MaxAttempts = 2
	opt.Fault.SkipBadRecords = true
	opt.Fault.MaxSkippedRecords = 1000
	opt.Fault.OnQuarantine = func(r QuarantinedRecord) { quarantined = append(quarantined, r) }
	got, err := SelfJoinStrings(texts, opt)
	if err != nil {
		t.Fatalf("poisoned join with skip enabled: %v", err)
	}
	// An index-keyed injected fault re-fires on whatever record lands at
	// index 0 after each quarantine, so it drains task 0's split; every
	// report must still pinpoint its record, and the public counter must
	// agree with the sink. (Exact single-record quarantine with
	// content-keyed poisons is proven at the engine level in
	// internal/mapreduce/skip_test.go.)
	if len(quarantined) == 0 {
		t.Fatal("no records quarantined")
	}
	for _, q := range quarantined {
		if q.Job != rec.jobs[0] || q.Phase != "map" || q.Task != 0 || !strings.Contains(q.Err, "poisoned") {
			t.Errorf("quarantine report %+v does not identify the poisoned record", q)
		}
	}
	if got.Stats.RecordsSkipped != int64(len(quarantined)) {
		t.Errorf("Stats.RecordsSkipped = %d, sink saw %d", got.Stats.RecordsSkipped, len(quarantined))
	}
	baseline := map[string]bool{}
	for _, p := range want.Pairs {
		baseline[fmt.Sprintf("%d|%d", p.A, p.B)] = true
	}
	for _, p := range got.Pairs {
		if !baseline[fmt.Sprintf("%d|%d", p.A, p.B)] {
			t.Fatalf("skipped run invented pair %+v absent from the clean run", p)
		}
	}

	// Without skip mode the same poison is fatal.
	noSkip := opt
	noSkip.Fault.SkipBadRecords = false
	noSkip.Fault.OnQuarantine = nil
	if _, err := SelfJoinStrings(texts, noSkip); err == nil {
		t.Fatal("poisoned join without skip mode should fail")
	}
}

// TestMaxSkippedRecordsAborts: poison more records than the budget allows
// and demand a loud abort instead of quiet data loss.
func TestMaxSkippedRecordsAborts(t *testing.T) {
	texts := corpus(40, 7)
	opt := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	opt.Fault.injector = recordPoisoner{allTasks: true} // every map task of every stage
	opt.Fault.MaxAttempts = 2
	opt.Fault.SkipBadRecords = true
	opt.Fault.MaxSkippedRecords = 1
	_, err := SelfJoinStrings(texts, opt)
	if err == nil || !strings.Contains(err.Error(), "MaxSkippedRecords") {
		t.Fatalf("err = %v, want MaxSkippedRecords abort", err)
	}
}
