package mapreduce

import (
	"encoding/binary"
	"fmt"
)

// Key-encoding helpers. Keys are binary strings; encoding integers
// big-endian makes lexicographic key order equal numeric order, which keeps
// reducer iteration deterministic and meaningful.

// U32Key encodes a uint32 as a 4-byte big-endian key.
func U32Key(x uint32) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], x)
	return string(b[:])
}

// DecodeU32Key decodes a key produced by U32Key. It panics on a key of
// another length.
func DecodeU32Key(k string) uint32 {
	if len(k) != 4 {
		badKeyLen(k, 4)
	}
	return be32(k)
}

// PairKey encodes an ordered pair of uint32s as an 8-byte key — used for
// (rid, rid) candidate-pair keys in verification jobs.
func PairKey(a, b uint32) string {
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], a)
	binary.BigEndian.PutUint32(buf[4:], b)
	return string(buf[:])
}

// DecodePairKey decodes a key produced by PairKey. It panics on a key of
// another length.
func DecodePairKey(k string) (a, b uint32) {
	if len(k) != 8 {
		badKeyLen(k, 8)
	}
	return be32(k), be32(k[4:])
}

// be32 reads k's first four bytes, big-endian, in place.
func be32(k string) uint32 {
	_ = k[3]
	return uint32(k[0])<<24 | uint32(k[1])<<16 | uint32(k[2])<<8 | uint32(k[3])
}

// badKeyLen panics on a key that is not the n bytes its decoder reads,
// naming both lengths.
func badKeyLen(k string, n int) {
	panic(fmt.Sprintf("mapreduce: decoding a %d-byte key, want %d bytes", len(k), n))
}

// OriginKey encodes an input-record key for a join that may read two
// relations whose rid spaces overlap. Origin 0 (R, and every self-join
// record) keeps the plain 4-byte rid key; other origins get the 8-byte
// (origin, rid) form. Map input keys are informational — splits are
// positional — but skip-mode quarantine reports quote them, so R#x and
// S#x must not collide (DESIGN.md §12).
func OriginKey(origin uint8, rid uint32) string {
	if origin == 0 {
		return U32Key(rid)
	}
	return PairKey(uint32(origin), rid)
}

// DecodeOriginKey decodes a key produced by OriginKey.
func DecodeOriginKey(k string) (origin uint8, rid uint32) {
	if len(k) == 4 {
		return 0, DecodeU32Key(k)
	}
	a, b := DecodePairKey(k)
	return uint8(a), b
}
