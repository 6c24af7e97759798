package massjoin

import (
	"encoding/binary"

	"fsjoin/internal/spill"
)

// Spill codecs for this package's shuffle values (DESIGN.md §8). Tags
// 50–53; the verify stage's output is result.Scored.
func init() {
	spill.RegisterValue(50, sigEntry{},
		func(buf []byte, v any) []byte {
			e := v.(sigEntry)
			buf = binary.AppendVarint(buf, int64(e.rid))
			buf = binary.AppendVarint(buf, int64(e.l))
			if e.probe {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			for _, g := range e.light {
				buf = binary.LittleEndian.AppendUint16(buf, g)
			}
			return buf
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			e := sigEntry{rid: int32(d.Varint()), l: int32(d.Varint())}
			e.probe = d.Bool()
			for i := range e.light {
				e.light[i] = d.U16()
			}
			return e, d.Err()
		})
	spill.RegisterValue(51, candValue{},
		func(buf []byte, v any) []byte { return buf },
		func(b []byte) (any, error) { return candValue{}, nil })
	spill.RegisterValue(52, recPayload{},
		func(buf []byte, v any) []byte {
			p := v.(recPayload)
			buf = binary.AppendVarint(buf, int64(p.rid))
			return spill.AppendU32s(buf, p.toks)
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			p := recPayload{rid: int32(d.Varint())}
			p.toks = d.U32s()
			return p, d.Err()
		})
	spill.RegisterValue(53, ridList{},
		func(buf []byte, v any) []byte {
			return spill.AppendI32s(buf, v.(ridList).rids)
		},
		func(b []byte) (any, error) {
			d := spill.NewDec(b)
			l := ridList{rids: d.I32s()}
			return l, d.Err()
		})
}
