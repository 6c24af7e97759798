package order

import (
	"encoding/binary"

	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Spill codec for RecordValue. Registering it makes the stages that take
// records as input fingerprintable and their upstream outputs
// checkpointable (DESIGN.md §9), and lets the stages that ship records
// spill them (DESIGN.md §8). Tag 61; this package owns tags 61–62.
func init() {
	spill.RegisterValue(61, RecordValue{},
		func(buf []byte, v any) []byte {
			r := v.(RecordValue)
			buf = binary.AppendVarint(buf, int64(r.Rec.RID))
			return spill.AppendU32s(buf, r.Rec.Tokens)
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			r := RecordValue{Rec: tokens.Record{RID: int32(d.Varint())}}
			r.Rec.Tokens = d.U32s()
			return r, d.Err()
		})
}
