package mapreduce

import (
	"errors"
	"strings"
	"testing"

	"fsjoin/internal/spill"
)

// opaque is a value type with no spill codec.
type opaque struct{ n int64 }

// emitOpaque emits one opaque value per word of its input line.
var emitOpaque = MapFunc(func(ctx *Context, kv KV) {
	for _, w := range strings.Fields(kv.Value.(string)) {
		ctx.Emit(w, opaque{n: 1})
	}
})

var sumOpaque = ReduceFunc(func(ctx *Context, key string, values []any) {
	var n int64
	for _, v := range values {
		n += v.(opaque).n
	}
	ctx.Emit(key, n)
})

// TestNoCodecFailsAtEveryCrossing: a value with no codec fails the job
// wherever it must cross the disk — a spill run, a checkpoint's stage
// output or stage-input fingerprint — with
// spill.ErrNoCodec, and leaves no file behind. The spill case runs again
// in skip mode: its probes shuffle nothing, so no record is quarantined.
func TestNoCodecFailsAtEveryCrossing(t *testing.T) {
	input := budgetInput(8, 20, 30)
	for _, tc := range []struct {
		name string
		run  func(spillDir, ckptDir string) error
	}{
		{"spill run", func(spillDir, _ string) error {
			_, err := Run(Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
				MemoryBudgetBytes: 256, SpillDir: spillDir}, input, emitOpaque, sumOpaque)
			return err
		}},
		{"checkpoint output", func(spillDir, ckptDir string) error {
			p := NewPipeline("no-codec", tinyCluster())
			p.SpillDir, p.CheckpointDir = spillDir, ckptDir
			_, err := p.Run(Config{Name: "emit"}, input, emitOpaque, nil)
			return err
		}},
		{"checkpoint input", func(spillDir, ckptDir string) error {
			p := NewPipeline("no-codec", tinyCluster())
			p.SpillDir, p.CheckpointDir = spillDir, ckptDir
			held := []KV{{Key: "a", Value: int64(1)}, {Key: "b", Value: opaque{n: 1}}}
			_, err := p.Run(Config{Name: "consume"}, held, identityMapper{}, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spillDir, ckptDir := t.TempDir(), t.TempDir()
			if err := tc.run(spillDir, ckptDir); !errors.Is(err, spill.ErrNoCodec) {
				t.Fatalf("err = %v, want spill.ErrNoCodec", err)
			}
			noSpillFiles(t, spillDir)
			noSpillFiles(t, ckptDir)
		})
	}

	t.Run("spill run, skip mode", func(t *testing.T) {
		spillDir, sinkCalls := t.TempDir(), 0
		cfg := Config{Cluster: tinyCluster(), MapTasks: 2, ReduceTasks: 2,
			MemoryBudgetBytes: 256, SpillDir: spillDir,
			Fault: FaultPolicy{SkipBadRecords: true, Quarantine: func(QuarantinedRecord) { sinkCalls++ }}}
		// A failed job returns no counters: the skip charge it keeps is
		// what CounterRecordsSkipped would have summed.
		env, err := newJobEnv(cfg, jobInput{kvs: input}, emitOpaque, sumOpaque, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runJob(env); !errors.Is(err, spill.ErrNoCodec) {
			t.Fatalf("err = %v, want spill.ErrNoCodec", err)
		}
		if sinkCalls != 0 || env.quarantine.skipped != 0 {
			t.Fatalf("quarantined %d records (%d sink calls), want none", env.quarantine.skipped, sinkCalls)
		}
		noSpillFiles(t, spillDir)
	})
}
