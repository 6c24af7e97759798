package spill

import (
	"errors"
	"fmt"
	"testing"
)

// TestDrainCancellation proves Config.Cancel interrupts both drain paths:
// the decode of spilled runs and the pure in-memory replay.
func TestDrainCancellation(t *testing.T) {
	errStop := errors.New("stop")
	for _, spilled := range []bool{true, false} {
		t.Run(fmt.Sprintf("spilled=%v", spilled), func(t *testing.T) {
			stop := false
			cfg := Config{
				Parts: 1,
				Dir:   t.TempDir(),
				Size:  func(k string, v any) int64 { return int64(len(k)) + 8 },
				Cancel: func() error {
					if stop {
						return errStop
					}
					return nil
				},
			}
			if spilled {
				cfg.Budget = 1 << 10
			}
			b := NewBuffer(cfg)
			defer b.Close()
			for i := 0; i < 3*cancelStride; i++ {
				if err := b.Add(0, fmt.Sprintf("k%06d", i), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if spilled && b.Stats().Runs == 0 {
				t.Fatal("budget never spilled; test proves nothing about the decode")
			}
			// Uncancelled drain replays everything.
			n := 0
			if _, err := b.Drain(0, func(string, any, int64) { n++ }); err != nil {
				t.Fatal(err)
			}
			if n != 3*cancelStride {
				t.Fatalf("drained %d records, want %d", n, 3*cancelStride)
			}
			// Cancelled drain stops within one stride.
			stop = true
			n = 0
			_, err := b.Drain(0, func(string, any, int64) { n++ })
			if !errors.Is(err, errStop) {
				t.Fatalf("err = %v, want errStop", err)
			}
			if n > cancelStride {
				t.Fatalf("cancelled drain still replayed %d records (stride %d)", n, cancelStride)
			}
		})
	}
}
