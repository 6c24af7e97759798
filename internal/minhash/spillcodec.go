package minhash

import (
	"encoding/binary"

	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Spill codecs for this package's shuffle values (DESIGN.md §8). Tags
// 56–59; the verify stage's output is result.Scored.
func init() {
	spill.RegisterValue(56, sigValue{},
		func(buf []byte, v any) []byte {
			s := v.(sigValue)
			buf = append(buf, s.origin)
			buf = binary.AppendVarint(buf, int64(s.rid))
			return binary.AppendVarint(buf, int64(s.l))
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			s := sigValue{origin: d.Byte(), rid: int32(d.Varint()), l: int32(d.Varint())}
			return s, d.Err()
		})
	spill.RegisterValue(57, candMark{},
		func(buf []byte, v any) []byte { return buf },
		func(b []byte) (any, error) { return candMark{}, nil })
	spill.RegisterValue(58, recValue{},
		func(buf []byte, v any) []byte {
			r := v.(recValue)
			buf = binary.AppendVarint(buf, int64(r.rec.RID))
			return spill.AppendU32s(buf, r.rec.Tokens)
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			r := recValue{rec: tokens.Record{RID: int32(d.Varint())}}
			r.rec.Tokens = d.U32s()
			return r, d.Err()
		})
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
