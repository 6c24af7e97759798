package mapreduce_test

import (
	"fmt"
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/testutil"
)

// TestFirstValueFoldsUnboxed: FirstValue dedups the same records whether
// the engine asks Fold for the accumulator back or, told that it KeepsFirst,
// leaves the column alone — over a typed column, the []any fallback and
// keys of 8 and 6 bytes.
func TestFirstValueFoldsUnboxed(t *testing.T) {
	for name, value := range map[string]func(i uint32) any{
		"candidates": func(uint32) any { return result.Candidate{} },
		"counts":     func(i uint32) any { return int64(i) },
		"strings":    func(i uint32) any { return fmt.Sprint("v", i) },
	} {
		t.Run(name, func(t *testing.T) {
			var input []mapreduce.KV
			for i := uint32(0); i < 1500; i++ {
				key := mapreduce.PairKey(i%53, i%3)
				if i%2 == 1 {
					key = fmt.Sprintf("p%03d-%d", i%53, i%3)
				}
				input = append(input, mapreduce.KV{Key: key, Value: value(i)})
			}
			testutil.AssertTypedFoldAgrees(t, input, mapreduce.FirstValue{})
		})
	}
}
