package minhash

import (
	"encoding/binary"

	"fsjoin/internal/spill"
)

// Spill codec for this package's own shuffle value (DESIGN.md §8); the
// others are shared: rsinput.Posting, result.Candidate, order.RecordValue,
// and the verify stage's output result.Scored. Tag 59.
func init() {
	spill.RegisterColumn[partner]()
	spill.RegisterValue(59, partner(0),
		func(buf []byte, v any) []byte {
			return binary.AppendVarint(buf, int64(v.(partner)))
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			p := partner(d.Varint())
			return p, d.Err()
		})
}
