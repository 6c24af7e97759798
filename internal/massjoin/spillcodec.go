package massjoin

import (
	"encoding/binary"

	"fsjoin/internal/spill"
)

// Spill codecs for this package's own shuffle values (DESIGN.md §8); the
// others are shared: result.Candidate, order.RecordValue, and the verify
// stage's output result.Scored. Tags 50 and 53.
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
