package spill

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// KeyIndex stands in for one record while records are put in key order:
// the key's first eight bytes as a big-endian integer (zero-padded), its
// length capped at nine, and the record's position in whatever holds it —
// for a Group over several sources, which source, in the bytes the struct
// would otherwise pad, and a position ascending across them all. Sixteen
// pointer-free bytes, so sorting moves no record and the garbage
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
	Src    uint16
	Pos    int32
}

// MakeKeyIndex abbreviates key for the record at position pos.
func MakeKeyIndex(key string, pos int) KeyIndex { return makeKeyIndex(key, pos) }

// makeKeyIndex is MakeKeyIndex of a key given as a string or as bytes.
func makeKeyIndex[K string | []byte](key K, pos int) KeyIndex {
	var prefix [8]byte
	copy(prefix[:], key)
	return KeyIndex{Prefix: binary.BigEndian.Uint64(prefix[:]), Len: uint8(min(len(key), 9)), Pos: int32(pos)}
}

// CompareKeys orders two abbreviated keys exactly as strings.Compare orders
// the keys they stand for. key returns the full key of the record an
// index entry stands for and is called only when both keys exceed eight
// bytes and share them.
func CompareKeys(a, b KeyIndex, key func(KeyIndex) string) int {
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
func compareTails(a, b KeyIndex, key func(KeyIndex) string) int {
	if a.Len != b.Len {
		return cmp.Compare(a.Len, b.Len)
	}
	if a.Len == 9 {
		return strings.Compare(key(a)[8:], key(b)[8:])
	}
	return 0
}

// Indexable reports whether n records can be indexed: KeyIndex.Pos is an
// int32, and a position that wrapped would group records wrongly instead
// of failing. Whoever builds an index checks the record count it is about
// to index with this first.
func Indexable(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("spill: %d records in one partition, a sort index addresses at most %d", n, math.MaxInt32)
	}
	return nil
}

// MaxSources is the most sources one Group takes: KeyIndex.Src is a uint16.
const MaxSources = math.MaxUint16

// Groupable reports whether n sources can be grouped together, the bound
// Indexable is for positions: a source number that wrapped would read
// records of the wrong source. A job checks its map task count with this
// before any task runs.
func Groupable(n int) error {
	if n > MaxSources {
		return fmt.Errorf("spill: %d sources in one group, a sort index addresses at most %d", n, MaxSources)
	}
	return nil
}

// SortIndex sorts idx by key, then position. Position as the final
// tie-break makes the order total, so the sort is stable by construction:
// records with equal keys stay in position order. This is the one key
// ordering of the shuffle — a buffer's drain, a folding fetch and
// reduce-side grouping all use it.
//
// idx must arrive in strictly ascending position order, which is how every
// caller builds it (one append per record, in record order); SortIndex
// panics otherwise, a wrapped position included. That contract is what
// lets the sort be a stable least-significant-digit radix sort over the
// prefix bytes: one scatter pass per byte position at which the prefixes
// differ at all — three for the dense token ids of a 250 000-token domain,
// none for the bytes every key shares — after which equal prefixes are
// still in position order. Only a run of equal prefixes that holds a key
// longer than eight bytes, or keys of different lengths, is then put in
// order by comparison, full keys included.
func SortIndex(idx []KeyIndex, key func(KeyIndex) string) {
	if len(idx) < 2 {
		return
	}
	// Which bytes vary, whether any run can need its tails compared, and
	// the position contract, in one scan.
	first := idx[0]
	var diff uint64
	tails := first.Len == 9
	for i := 1; i < len(idx); i++ {
		e := &idx[i]
		if e.Pos <= idx[i-1].Pos {
			panic(fmt.Sprintf("spill: SortIndex: position %d follows %d, index not in ascending position order", e.Pos, idx[i-1].Pos))
		}
		diff |= e.Prefix ^ first.Prefix
		tails = tails || e.Len != first.Len
	}
	if diff != 0 {
		radixByPrefix(idx, diff)
	}
	if !tails {
		return
	}
	for lo := 0; lo < len(idx); {
		hi, mixed := lo+1, idx[lo].Len == 9
		for ; hi < len(idx) && idx[hi].Prefix == idx[lo].Prefix; hi++ {
			mixed = mixed || idx[hi].Len != idx[lo].Len
		}
		if mixed && hi-lo > 1 {
			slices.SortFunc(idx[lo:hi], func(a, b KeyIndex) int {
				if c := compareTails(a, b, key); c != 0 {
					return c
				}
				return int(a.Pos) - int(b.Pos)
			})
		}
		lo = hi
	}
}

// radixByPrefix stably sorts idx by Prefix, least significant byte first,
// visiting only the byte positions set in diff. A pass is a 256-counter
// histogram of its byte (a digit of need, not a 64 K-entry table that would
// cost a small index more to clear than to sort), its prefix sums, and one
// scatter into the other of two arrays.
func radixByPrefix(idx []KeyIndex, diff uint64) {
	scratch := indexPool.get(len(idx))
	defer indexPool.put(scratch)
	src, dst := idx, (*scratch)[:len(idx)]
	for s := uint(0); s < 64; s += 8 {
		if diff>>s&0xff == 0 {
			continue
		}
		var next [256]int32
		for i := range src {
			next[byte(src[i].Prefix>>s)]++
		}
		sum := int32(0)
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for i := range src {
			d := byte(src[i].Prefix >> s)
			dst[next[d]] = src[i]
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// slicePool holds slices of T between uses, each as a pointer to its
// header, so that giving one back allocates nothing.
type slicePool[T any] struct{ sync.Pool }

// get returns an empty slice with room for n elements, from the pool when
// it has one that large. Give it back with put.
func (p *slicePool[T]) get(n int) *[]T {
	s, _ := p.Get().(*[]T)
	if s == nil {
		s = new([]T)
	}
	if cap(*s) < n {
		*s = make([]T, 0, n)
	}
	*s = (*s)[:0]
	return s
}

// put gives back a slice of get's; nothing may use it after.
func (p *slicePool[T]) put(s *[]T) { p.Put(s) }

// indexPool holds sort indexes and radix scratch arrays: a reduce task's
// grouping and every sort need one as long as the records being sorted,
// and only until the call returns.
var indexPool slicePool[KeyIndex]
