package spill

import (
	"errors"
	"fmt"
	"testing"
)

// TestBufferHoldsOneType: a Buffer partition refuses a value of a second
// type with ErrMixedValues, and a value of no registered type — nil
// included — with ErrNoCodec, unbounded and after it has spilled, folding
// or not; the partition keeps what it held, and drains it.
func TestBufferHoldsOneType(t *testing.T) {
	for _, fold := range []func(acc, v any) any{nil, keepFirst{}.Fold} {
		for _, budget := range []int64{0, 256} {
			for _, tc := range []struct {
				v    any
				want error
			}{
				{"a string", ErrMixedValues},
				{uint32(1), ErrMixedValues},
				{unregistered{n: 1}, ErrNoCodec},
				{nil, ErrNoCodec},
			} {
				name := fmt.Sprintf("fold %v, budget %d, a %T", fold != nil, budget, tc.v)
				b := NewBuffer(Config{Parts: 2, Budget: budget, Size: testSize, Fold: fold, Dir: t.TempDir()})
				// First in a partition of its own, only a registered type is taken.
				first := error(nil)
				if tc.want == ErrNoCodec {
					first = ErrNoCodec
				}
				if err := b.Add(1, "first", tc.v); !errors.Is(err, first) {
					t.Errorf("%s first in its partition: %v, want %v", name, err, first)
				}
				for i := 0; i < 40; i++ {
					if err := b.Add(0, fmt.Sprintf("k%02d", i%20), int64(i)); err != nil {
						t.Fatal(err)
					}
				}
				if spilled := b.Stats().Runs > 0; spilled != (budget > 0) {
					t.Fatalf("%s: %d spills", name, b.Stats().Runs)
				}
				for _, key := range []string{"k00", "new"} {
					if err := b.Add(0, key, tc.v); !errors.Is(err, tc.want) {
						t.Errorf("%s under key %q: %v, want %v", name, key, err, tc.want)
					}
				}
				want := 40
				if fold != nil {
					want = 20
				}
				if _, vals, _ := drainRecords(t, b, 1); len(vals) != want {
					t.Errorf("%s: drained %d values, want %d", name, len(vals), want)
				}
				b.Close()
			}
		}
	}
}
