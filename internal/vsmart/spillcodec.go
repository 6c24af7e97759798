package vsmart

import (
	"encoding/binary"

	"fsjoin/internal/spill"
)

// Spill codecs for this package's shuffle values (DESIGN.md §8). The
// partial fold is pure addition on c, so re-folding merged runs is exact.
// Tags 46–47.
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
	spill.RegisterValue(47, partial{},
		func(buf []byte, v any) []byte {
			p := v.(partial)
			buf = binary.AppendVarint(buf, int64(p.c))
			buf = binary.AppendVarint(buf, int64(p.la))
			return binary.AppendVarint(buf, int64(p.lb))
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			p := partial{c: int32(d.Varint()), la: int32(d.Varint()), lb: int32(d.Varint())}
			return p, d.Err()
		})
}
