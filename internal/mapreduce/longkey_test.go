package mapreduce

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/spill"
)

// suffixReducer emits each word's count under the word with a suffix.
type suffixReducer struct{ suffix string }

func (r suffixReducer) Reduce(ctx *Context, key string, values []any) {
	ctx.Emit(key+r.suffix, int64(len(values)))
}

// TestEmitRefusesLongKey: a key longer than spill.MaxKeyLen fails the task
// that emits it, with an error naming the key's length, wherever it is
// emitted — into a map task's shuffle, a map-only job's output or a
// reduce task's output — in memory or under a budget that spills.
func TestEmitRefusesLongKey(t *testing.T) {
	for _, tc := range []struct {
		name    string
		input   []KV
		reducer Reducer
		phase   Phase
	}{
		{"map emit", wcInput("short words", "an overlong10 one"), wcReducer{}, PhaseMap},
		{"map-only emit", wcInput("short words", "an overlong10 one"), nil, PhaseMap},
		// Every word fits; "eight-by++" does not.
		{"reduce emit", wcInput("eight-by short", "short"), suffixReducer{"++"}, PhaseReduce},
	} {
		for _, budget := range []int64{-1, 64} {
			cfg := Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2, MemoryBudgetBytes: budget, SpillDir: t.TempDir()}
			_, err := Run(cfg, tc.input, wcMapper{}, tc.reducer)
			var te *TaskError
			if !errors.Is(err, spill.ErrLongKey) || !errors.As(err, &te) || te.Phase != tc.phase {
				t.Fatalf("%s, budget %d: err %v; want the %s task's ErrLongKey", tc.name, budget, err, tc.phase)
			}
			if !strings.Contains(err.Error(), "a 10-byte key") {
				t.Fatalf("%s, budget %d: %v does not name the key's length", tc.name, budget, err)
			}
		}
	}
}

// TestPipelineCheckpointLongKeyRecomputes: a checkpoint that passes its
// checksum and fingerprint but holds a key longer than any stage emits —
// a 9-byte one — is not replayed: it counts as corrupt, its stage runs
// again, and the output is what a run without checkpoints gives; for a
// stage kept as Output and for one kept in columns (Feed) alike.
func TestPipelineCheckpointLongKeyRecomputes(t *testing.T) {
	input := wcInput("a b c", "b c", "c c", "a")
	count := Config{Name: "count", MapTasks: 2, ReduceTasks: 2}
	run := func(dir string, feed bool) (*Pipeline, []KV) {
		p := NewPipeline("ckpt-pipe", tinyCluster())
		p.CheckpointDir, p.CheckpointSalt = dir, "s"
		pass := Config{Name: "pass", MapTasks: 2, ReduceTasks: 2}
		var r1, out *Result
		var err error
		if feed {
			if r1, err = p.Feed(count, input, wcMapper{}, wcReducer{}); err == nil {
				out, err = p.Chain(pass, r1, FirstValue{})
			}
		} else if r1, err = p.Run(count, input, wcMapper{}, wcReducer{}); err == nil {
			out, err = p.Run(pass, r1.Output, identityMapper{}, FirstValue{})
		}
		if err != nil {
			t.Fatal(err)
		}
		return p, out.Output
	}
	for _, feed := range []bool{false, true} {
		_, want := run("", feed)
		dir := t.TempDir()
		run(dir, feed)

		// Rewrite stage 0's checkpoint with one key made nine bytes long.
		p := NewPipeline("ckpt-pipe", tinyCluster())
		p.CheckpointSalt = "s"
		fp, err := p.stageFingerprint(0, count, jobInput{kvs: input})
		if err != nil {
			t.Fatal(err)
		}
		store, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, status := store.Load(0, count.Name, fp)
		if status != checkpoint.Hit {
			t.Fatalf("feed=%v: stage 0's checkpoint loads as %v", feed, status)
		}
		snap.Records[0].Key = "123456789"
		if err := store.Save(snap.Manifest, snap.Records); err != nil {
			t.Fatal(err)
		}

		p, got := run(dir, feed)
		if st := p.CheckpointStats(); st.Corrupt != 1 || st.Hits+st.Misses != 2 {
			t.Fatalf("feed=%v: stats = %+v, want exactly 1 corrupt of 2 stages", feed, st)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("feed=%v: output %v after the recompute, want %v", feed, got, want)
		}
	}
}

// TestLongKeyNeitherRetriedNorSkipped: a key longer than spill.MaxKeyLen is
// emitted again on every attempt, whatever records the attempt is given,
// so the attempt loop treats it as it treats cancellation: a mapper that
// emits a 15-byte key under skip mode fails the job with ErrLongKey after
// one attempt, with no retry, no probe and nothing quarantined.
func TestLongKeyNeitherRetriedNorSkipped(t *testing.T) {
	cfg := skipConfig(10)
	var quarantined []QuarantinedRecord
	cfg.Fault.Quarantine = func(r QuarantinedRecord) { quarantined = append(quarantined, r) }
	var maps atomic.Int32 // how often the record with the long key was mapped
	mapper := MapFunc(func(ctx *Context, kv KV) {
		if strings.Contains(kv.Value.(string), "overlong-key-15") {
			maps.Add(1)
		}
		wcMapper{}.Map(ctx, kv)
	})
	_, err := Run(cfg, wcInput("short words", "an overlong-key-15 here", "more short words"), mapper, wcReducer{})
	if !errors.Is(err, spill.ErrLongKey) {
		t.Fatalf("err %v, want ErrLongKey", err)
	}
	if n := maps.Load(); n != 1 || len(quarantined) != 0 {
		t.Fatalf("the long-key record was mapped %d times and %d records quarantined, want one attempt and none", n, len(quarantined))
	}
}
