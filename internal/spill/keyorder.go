package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// KeyIndex stands in for one record while records are put in key order:
// the key as a big-endian integer, zero-padded to eight bytes, its length,
// and the record's position in whatever holds it — for a Group over
// several sources, which source, in the bytes the struct would otherwise
// pad, and a position ascending across them all. Sixteen pointer-free
// bytes, so sorting moves no record and the garbage collector never scans
// the array.
//
// A shuffle key is at most MaxKeyLen bytes, so a KeyIndex holds the whole
// of it. Zero-padding makes two keys with equal prefixes differ only by
// trailing zero bytes, so the shorter sorts first: (Prefix, Len) orders
// keys as strings.Compare does.
type KeyIndex struct {
	Prefix uint64
	Len    uint8
	Src    uint16
	Pos    int32
}

// MaxKeyLen is the longest key the shuffle holds: what a KeyIndex's prefix
// holds whole.
const MaxKeyLen = 8

// ErrLongKey is the error of a key longer than MaxKeyLen, wherever it
// meets the shuffle: added to a Buffer, read from a spill file, emitted or
// replayed from a checkpoint (package mapreduce).
var ErrLongKey = errors.New("a shuffle key is at most 8 bytes")

// CheckKey returns nil for a key of at most MaxKeyLen bytes, and otherwise
// an ErrLongKey that names its length.
func CheckKey[K string | []byte](key K) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("spill: a %d-byte key, %w", len(key), ErrLongKey)
	}
	return nil
}

// MakeKeyIndex abbreviates key, of at most MaxKeyLen bytes, for the record
// at position pos. It panics on a longer key: callers check with CheckKey.
func MakeKeyIndex[K string | []byte](key K, pos int) KeyIndex {
	if err := CheckKey(key); err != nil {
		panic(err)
	}
	var prefix [8]byte
	copy(prefix[:], key)
	return KeyIndex{Prefix: binary.BigEndian.Uint64(prefix[:]), Len: uint8(len(key)), Pos: int32(pos)}
}

// CompareKeys orders two abbreviated keys exactly as strings.Compare orders
// the keys they stand for.
func CompareKeys(a, b KeyIndex) int {
	// Called once per record a group sweep passes: it must inline.
	switch {
	case a.Prefix < b.Prefix || a.Prefix == b.Prefix && a.Len < b.Len:
		return -1
	case a.Prefix != b.Prefix || a.Len != b.Len:
		return 1
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
// lets the sort be a stable least-significant-digit radix sort: a counting
// pass on Len when key lengths differ, then one scatter pass per byte
// position at which the prefixes differ at all — three for the dense token
// ids of a 250 000-token domain, none for the bytes every key shares.
func SortIndex(idx []KeyIndex) {
	if len(idx) < 2 {
		return
	}
	// Which bytes vary, whether lengths do, and the position contract, in
	// one scan.
	first := idx[0]
	var diff uint64
	lens := false
	for i := 1; i < len(idx); i++ {
		e := &idx[i]
		if e.Pos <= idx[i-1].Pos {
			panic(fmt.Sprintf("spill: SortIndex: position %d follows %d, index not in ascending position order", e.Pos, idx[i-1].Pos))
		}
		diff |= e.Prefix ^ first.Prefix
		lens = lens || e.Len != first.Len
	}
	if diff != 0 || lens {
		radixSort(idx, diff, lens)
	}
}

// radixSort stably sorts idx by (Prefix, Len), least significant digit
// first: Len when lens is set, then Prefix's bytes, visiting only the byte
// positions set in diff. A pass is a 256-counter histogram of its digit
// (not a 64 K-entry table that would cost a small index more to clear than
// to sort), its prefix sums, and one scatter into the other of two arrays.
func radixSort(idx []KeyIndex, diff uint64, lens bool) {
	scratch := indexPool.get(len(idx))
	defer indexPool.put(scratch)
	src, dst := idx, (*scratch)[:len(idx)]
	for s := -8; s < 64; s += 8 {
		if s < 0 && !lens || s >= 0 && diff>>s&0xff == 0 {
			continue
		}
		var next [256]int32
		for i := range src {
			next[digit(&src[i], s)]++
		}
		sum := int32(0)
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for i := range src {
			d := digit(&src[i], s)
			dst[next[d]] = src[i]
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// digit is e's radix digit at shift s: its prefix's byte there, and below
// the prefix its length.
func digit(e *KeyIndex, s int) byte {
	if s < 0 {
		return e.Len
	}
	return byte(e.Prefix >> s)
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
