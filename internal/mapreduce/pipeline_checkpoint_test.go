package mapreduce

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fsjoin/internal/frame"
)

// countEmitter is a mapper that also bumps a user counter, so replay tests
// can assert checkpointed counters come back exactly.
type countEmitter struct{ wcMapper }

func (m countEmitter) Map(ctx *Context, kv KV) {
	ctx.Inc("user.lines", 1)
	m.wcMapper.Map(ctx, kv)
}

// runTwoStagePipe executes the canonical two-stage shape (wordcount, then
// an identity stage over its output) on a fresh pipeline, optionally
// stopping after stage 1 — the engine-level model of a crash at a stage
// boundary. It returns the pipeline and the final output (nil when
// killed).
func runTwoStagePipe(t *testing.T, dir, salt string, killAfter1 bool) (*Pipeline, []KV) {
	t.Helper()
	p := NewPipeline("ckpt-pipe", tinyCluster())
	p.CheckpointDir = dir
	p.CheckpointSalt = salt
	input := wcInput("a b c", "b c", "c c", "a")
	r1, err := p.Run(Config{Name: "count", MapTasks: 2, ReduceTasks: 2}, input, countEmitter{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if killAfter1 {
		return p, nil
	}
	r2, err := p.Run(Config{Name: "pass", MapTasks: 2, ReduceTasks: 2}, r1.Output, identityMapper{}, FirstValue{})
	if err != nil {
		t.Fatal(err)
	}
	return p, r2.Output
}

type identityMapper struct{}

func (identityMapper) Map(ctx *Context, kv KV) { ctx.Emit(kv.Key, kv.Value) }

func TestPipelineCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	// Baseline: no checkpointing at all.
	_, want := runTwoStagePipe(t, "", "", false)

	// Run 1 "crashes" after stage 1 completes and checkpoints.
	p1, _ := runTwoStagePipe(t, dir, "s", true)
	if st := p1.CheckpointStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("killed run stats = %+v, want 1 miss", st)
	}

	// Run 2 resumes: stage 1 replays from disk, stage 2 executes.
	p2, got := runTwoStagePipe(t, dir, "s", false)
	if st := p2.CheckpointStats(); st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("resumed run stats = %+v, want 1 hit + 1 miss", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed output differs from uninterrupted run:\n got %v\nwant %v", got, want)
	}
	// Replayed stage counters must equal the original execution's.
	if n := p2.Counter("user.lines"); n != 4 {
		t.Errorf("replayed user.lines = %d, want 4", n)
	}

	// Run 3 finds both stages checkpointed.
	p3, got3 := runTwoStagePipe(t, dir, "s", false)
	if st := p3.CheckpointStats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("third run stats = %+v, want 2 hits", st)
	}
	if !reflect.DeepEqual(got3, want) {
		t.Error("fully replayed output differs from uninterrupted run")
	}
}

func TestPipelineCheckpointCorruptRecompute(t *testing.T) {
	dir := t.TempDir()
	_, want := runTwoStagePipe(t, dir, "s", false)
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 2 {
		t.Fatalf("expected 2 checkpoint files, got %v (%v)", files, err)
	}
	// Corrupt one byte of the first stage's file.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o600); err != nil {
		t.Fatal(err)
	}
	p, got := runTwoStagePipe(t, dir, "s", false)
	st := p.CheckpointStats()
	if st.Corrupt != 1 {
		t.Errorf("stats = %+v, want exactly 1 corrupt", st)
	}
	if st.Hits+st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 stages accounted", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("output after corrupt-recompute differs from clean run")
	}
}

func TestPipelineCheckpointSaltMismatch(t *testing.T) {
	dir := t.TempDir()
	runTwoStagePipe(t, dir, "salt-A", false)
	p, got := runTwoStagePipe(t, dir, "salt-B", false)
	if st := p.CheckpointStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats with changed salt = %+v, want 2 misses", st)
	}
	_, want := runTwoStagePipe(t, "", "", false)
	if !reflect.DeepEqual(got, want) {
		t.Error("recomputed output differs from clean run")
	}
}

func TestPipelineCheckpointInputChangeMisses(t *testing.T) {
	dir := t.TempDir()
	p1 := NewPipeline("ckpt-pipe", tinyCluster())
	p1.CheckpointDir = dir
	if _, err := p1.Run(Config{Name: "count", ReduceTasks: 2}, wcInput("a b"), wcMapper{}, wcReducer{}); err != nil {
		t.Fatal(err)
	}
	p2 := NewPipeline("ckpt-pipe", tinyCluster())
	p2.CheckpointDir = dir
	res, err := p2.Run(Config{Name: "count", ReduceTasks: 2}, wcInput("a b c"), wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p2.CheckpointStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats after input change = %+v, want 1 miss", st)
	}
	if len(res.Output) != 3 {
		t.Errorf("recomputed output has %d keys, want 3", len(res.Output))
	}
}

// TestPipelineCheckpointTempSwept models a crash mid-save: a leftover temp
// file must be swept on the next open and never treated as a checkpoint.
func TestPipelineCheckpointTempSwept(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, frame.TempPrefix+"999")
	if err := os.WriteFile(tmp, []byte("half a checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	p, got := runTwoStagePipe(t, dir, "s", false)
	if st := p.CheckpointStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 plain misses", st)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Error("leftover temp file survived")
	}
	_, want := runTwoStagePipe(t, "", "", false)
	if !reflect.DeepEqual(got, want) {
		t.Error("output differs from clean run")
	}
}

// killInjector fails every real attempt of one named job — the hook
// crash tests use to stop a pipeline at stage k.
type killInjector struct{ job string }

func (k killInjector) Decide(job string, phase Phase, task, attempt int) Fault {
	if job == k.job && phase == PhaseMap && attempt < ProbeAttempt {
		return Fault{Kind: FaultError, Msg: "injected crash"}
	}
	return Fault{}
}

func TestPipelineCheckpointSurvivesInjectedCrash(t *testing.T) {
	dir := t.TempDir()
	input := wcInput("a b c", "b c", "c c", "a")

	// Crashing run: stage 1 completes and checkpoints, stage 2's job is
	// killed on every attempt.
	p1 := NewPipeline("ckpt-pipe", tinyCluster())
	p1.CheckpointDir = dir
	p1.Fault = FaultPolicy{MaxAttempts: 2, Injector: killInjector{job: "pass"}}
	r1, err := p1.Run(Config{Name: "count", ReduceTasks: 2}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Run(Config{Name: "pass", ReduceTasks: 2}, r1.Output, identityMapper{}, FirstValue{}); err == nil {
		t.Fatal("injected crash did not fail stage 2")
	} else if !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("stage 2 failed with %v, want the injected crash", err)
	}

	// Resumed run, fault-free: stage 1 replays, stage 2 executes.
	p2, got := runTwoStagePipe(t, dir, "", false)
	if st := p2.CheckpointStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("resume stats = %+v, want 1 hit + 1 miss", st)
	}
	_, want := runTwoStagePipe(t, "", "", false)
	if !reflect.DeepEqual(got, want) {
		t.Error("post-crash resume output differs from uninterrupted run")
	}
}
