package spill

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
)

// KeyIndex stands in for one record while records are put in key order:
// the key's first eight bytes as a big-endian integer (zero-padded), its
// length capped at nine, and the record's position in whatever holds it.
// Sixteen pointer-free bytes, so sorting moves no record and the garbage
// collector never scans the array.
//
// Zero-padding makes two keys of at most eight bytes with equal prefixes
// differ only by trailing zero bytes, so the shorter sorts first; a key
// longer than eight bytes extends any such key with the same prefix. Only
// two keys that both exceed eight bytes and agree on them need their
// strings compared.
type KeyIndex struct {
	Prefix uint64
	Len    uint8
	Pos    int32
}

// MakeKeyIndex abbreviates key for the record at position pos.
func MakeKeyIndex(key string, pos int) KeyIndex {
	var prefix [8]byte
	copy(prefix[:], key)
	return KeyIndex{Prefix: binary.BigEndian.Uint64(prefix[:]), Len: uint8(min(len(key), 9)), Pos: int32(pos)}
}

// CompareKeys orders two abbreviated keys exactly as strings.Compare orders
// the keys they stand for. key returns the full key at a position and is
// called only when both keys exceed eight bytes and share them.
func CompareKeys(a, b KeyIndex, key func(pos int32) string) int {
	// Nearly every comparison ends here, so this much must inline.
	if a.Prefix != b.Prefix {
		if a.Prefix < b.Prefix {
			return -1
		}
		return 1
	}
	return compareTails(a, b, key)
}

// compareTails orders two keys whose first eight bytes agree.
func compareTails(a, b KeyIndex, key func(pos int32) string) int {
	if a.Len != b.Len {
		return cmp.Compare(a.Len, b.Len)
	}
	if a.Len == 9 {
		return strings.Compare(key(a.Pos)[8:], key(b.Pos)[8:])
	}
	return 0
}

// SortIndex sorts idx by key, then position. Position as the final
// tie-break makes the order total, so the sort is stable by construction:
// records with equal keys stay in position order. This is the one key
// ordering of the shuffle — spill runs, the drain of a spilled buffer's
// in-memory tail and reduce-side grouping all use it.
func SortIndex(idx []KeyIndex, key func(pos int32) string) {
	slices.SortFunc(idx, func(a, b KeyIndex) int {
		if c := CompareKeys(a, b, key); c != 0 {
			return c
		}
		return int(a.Pos) - int(b.Pos)
	})
}
