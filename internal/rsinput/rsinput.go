// Package rsinput is the R/S-tagged record every R-S-capable algorithm
// feeds its first join stage: one value type, one input builder and one
// spill codec shared by core, ridpairs, vsmart and minhash. A nil S
// relation means self-join throughout.
package rsinput

import (
	"encoding/binary"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Record is a record plus its origin relation (0 = R/self, 1 = S). The
// origin tag — not rid inequality — decides pairability in R-S mode,
// because R and S rid spaces may overlap.
type Record struct {
	Rec    tokens.Record
	Origin uint8
}

// Posting is a record reduced to what pair enumeration needs — origin,
// rid and length: an inverted-list entry of vsmart's join phase and a
// bucket entry of minhash's banding job.
type Posting struct {
	Origin   uint8
	RID, Len int32
}

// Union returns the collection the global ordering is computed over: r
// for a self-join, R ∪ S otherwise.
func Union(r, s *tokens.Collection) *tokens.Collection {
	if s == nil {
		return r
	}
	return &tokens.Collection{Records: append(append([]tokens.Record{}, r.Records...), s.Records...)}
}

// Tagged converts the relations into join-stage input pairs, R first. The
// key carries the origin (mapreduce.OriginKey), so skip-mode quarantine
// reports distinguish R#x from S#x when the two rid spaces overlap.
func Tagged(r, s *tokens.Collection) []mapreduce.KV {
	if s == nil {
		return appendTagged(make([]mapreduce.KV, 0, r.Len()), r, 0)
	}
	kvs := appendTagged(make([]mapreduce.KV, 0, r.Len()+s.Len()), r, 0)
	return appendTagged(kvs, s, 1)
}

// Ordered re-encodes both relations under the global order o and tags
// them: the join-stage input of every algorithm that runs the ordering
// job.
func Ordered(o *order.Order, r, s *tokens.Collection) ([]mapreduce.KV, error) {
	r, err := o.Apply(r)
	if err != nil {
		return nil, err
	}
	if s != nil {
		if s, err = o.Apply(s); err != nil {
			return nil, err
		}
	}
	return Tagged(r, s), nil
}

func appendTagged(kvs []mapreduce.KV, c *tokens.Collection, origin uint8) []mapreduce.KV {
	for _, rec := range c.Records {
		kvs = append(kvs, mapreduce.KV{
			Key:   mapreduce.OriginKey(origin, uint32(rec.RID)),
			Value: Record{Rec: rec, Origin: origin},
		})
	}
	return kvs
}

// The codecs make join-stage inputs fingerprintable and checkpointable
// (DESIGN.md §9) and let ridpairs, vsmart and minhash shuffle the values
// (DESIGN.md §8).
func init() {
	spill.Register(spill.TagPosting, spill.Codec[Posting]{
		Append: func(buf []byte, p Posting) []byte {
			buf = append(buf, p.Origin)
			buf = binary.AppendVarint(buf, int64(p.RID))
			return binary.AppendVarint(buf, int64(p.Len))
		},
		Read: func(d *spill.Dec) Posting {
			return Posting{Origin: d.Byte(), RID: int32(d.Varint()), Len: int32(d.Varint())}
		},
		Size: func(Posting) int { return 9 },
	})
	spill.Register(spill.TagRSRecord, spill.Codec[Record]{
		Append: func(buf []byte, t Record) []byte {
			buf = append(buf, t.Origin)
			buf = binary.AppendVarint(buf, int64(t.Rec.RID))
			return spill.AppendU32s(buf, t.Rec.Tokens)
		},
		Read: func(d *spill.Dec) Record {
			t := Record{Origin: d.Byte()}
			t.Rec.RID = int32(d.Varint())
			t.Rec.Tokens = d.U32s()
			return t
		},
		Size: func(t Record) int { return 5 + 4*len(t.Rec.Tokens) },
	})
}
