package vsmart

import (
	"encoding/binary"

	"fsjoin/internal/spill"
)

// Spill codec for this package's shuffle value (DESIGN.md §8). Tag 46.
func init() {
	spill.RegisterValue(46, posting{},
		func(buf []byte, v any) []byte {
			p := v.(posting)
			buf = append(buf, p.origin)
			buf = binary.AppendVarint(buf, int64(p.rid))
			return binary.AppendVarint(buf, int64(p.l))
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			p := posting{origin: d.Byte(), rid: int32(d.Varint()), l: int32(d.Varint())}
			return p, d.Err()
		})
}
