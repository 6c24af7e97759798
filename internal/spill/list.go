package spill

import (
	"math/bits"
	"reflect"
	"unsafe"
)

// Chunk k of a List holds firstChunk<<k records up to maxChunk, and
// maxChunk from there on. The first chunk is small because a job has map
// tasks × reduce tasks partitions and most hold a handful of records; the
// cap bounds what a long list can have allocated and not yet filled, where
// plain doubling leaves up to half.
const (
	firstShift = 3
	maxShift   = 10
	firstChunk = 1 << firstShift
	maxChunk   = 1 << maxShift
)

// List is an append-only record sequence stored in chunks: growth
// allocates the next chunk and never copies or re-zeroes a stored record,
// so the address At returns stays valid for the list's lifetime. Positions
// are dense, which is what lets fold slots and sort indexes refer to
// records by int. The zero value is an empty list.
//
// A list of a pointer-free element type that has a chunk pool — a
// partition's heads, a column of a pointer-free registered type — takes its
// chunks from the pool before it allocates one, and gives them back on
// release and Trim: where the owner knows no record of them is read again.
// A list that releases nothing leaves its chunks to the garbage collector.
type List[T any] struct {
	chunks [][]T // each chunk's len is its cap
	n      int
	pool   *chunkPool[T] // nil when T's chunks are not recycled
	seeded bool          // chunks[0] is the owner's memory, never pooled
}

// locate maps a position to its chunk and the offset inside it.
func locate(i int) (chunk, off int) {
	j := uint(i) + firstChunk
	if j >= maxChunk {
		return int(j>>maxShift) + maxShift - firstShift - 1, int(j & (maxChunk - 1))
	}
	chunk = bits.Len(j) - 1 - firstShift
	return chunk, int(j - firstChunk<<chunk)
}

// Len returns the number of stored records.
func (l *List[T]) Len() int { return l.n }

// Append stores v at position Len().
func (l *List[T]) Append(v T) {
	k, off := locate(l.n)
	if k == len(l.chunks) {
		l.grow(k)
	}
	l.chunks[k][off] = v
	l.n++
}

// grow adds chunk k, the next one, from T's pool when it has one. The
// chunk table starts with room for four: a list of up to 120 records
// allocates it once.
func (l *List[T]) grow(k int) {
	if l.chunks == nil {
		l.chunks = make([][]T, 0, 4)
		l.pool = poolOf[T]()
	}
	l.chunks = append(l.chunks, l.pool.get(min(k, maxShift-firstShift)))
}

// seed gives an empty list its chunk table and first chunk out of memory the
// caller allocated along with something else. The first chunk stays the
// list's: Trim and release keep it.
func (l *List[T]) seed(table [][]T, first *[firstChunk]T) {
	l.chunks = append(table[:0], first[:])
	l.pool = poolOf[T]()
	l.seeded = true
}

// At returns the record at position i, which must be in [0, Len()).
func (l *List[T]) At(i int) *T {
	k, off := locate(i)
	return &l.chunks[k][off]
}

// Reset empties the list, zeroing the records so whatever they referenced
// can be collected. Chunks stay allocated for reuse: a buffer that spills
// refills to about the same size.
func (l *List[T]) Reset() {
	for _, c := range l.chunks {
		clear(c[:min(l.n, len(c))])
		l.n -= min(l.n, len(c))
	}
}

// Trim gives up the chunks Reset kept that hold no record — to T's pool,
// where it has one — but a seeded first chunk.
func (l *List[T]) Trim() {
	used := 0
	if l.n > 0 {
		used, _ = locate(l.n - 1)
		used++
	}
	if l.seeded {
		used = max(used, 1)
	}
	for _, c := range l.chunks[used:] {
		l.pool.put(c)
	}
	clear(l.chunks[used:])
	l.chunks = l.chunks[:used]
}

// release empties the list and gives up its chunks as Trim does. Nothing
// may read a record of it, or keep a pointer At returned, after.
func (l *List[T]) release() {
	l.n = 0
	l.Trim()
}

// chunkPool recycles the chunks of lists of one pointer-free element type,
// one free list per chunk size (freeList: the collector does not empty
// it). A chunk is held as a pointer to its first record.
type chunkPool[T any] [maxShift - firstShift + 1]freeList[*T]

// get returns a zeroed chunk of firstChunk<<class records, from the pool
// when it has one — cleared, so that no list shows past its end what a
// released one held — and from the heap otherwise; a nil pool always
// allocates.
func (p *chunkPool[T]) get(class int) []T {
	n := firstChunk << class
	if p != nil {
		if c, ok := p[class].take(); ok {
			s := unsafe.Slice(c, n)
			clear(s)
			return s
		}
	}
	return make([]T, n)
}

// put gives back a chunk of get's; a nil pool drops it.
func (p *chunkPool[T]) put(c []T) {
	if p != nil {
		p[bits.Len(uint(len(c)))-1-firstShift].give(&c[0], int64(len(c))*int64(unsafe.Sizeof(c[0])))
	}
}

// chunkPools holds the *chunkPool of every element type whose chunks are
// recycled: head, and each pointer-free type Register installs. Written
// only at program start, like the codec registry.
var chunkPools = map[reflect.Type]any{reflect.TypeFor[head](): new(chunkPool[head])}

// poolOf returns T's chunk pool, nil when T's chunks are not recycled.
func poolOf[T any]() *chunkPool[T] {
	p, _ := chunkPools[reflect.TypeFor[T]()].(*chunkPool[T])
	return p
}
