package spill

import "math/bits"

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
type List[T any] struct {
	chunks [][]T // each chunk's len is its cap
	n      int
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

// grow allocates chunk k, the next one. The chunk table starts with room
// for four: a list of up to 120 records allocates it once.
func (l *List[T]) grow(k int) {
	if l.chunks == nil {
		l.chunks = make([][]T, 0, 4)
	}
	l.chunks = append(l.chunks, make([]T, firstChunk<<min(k, maxShift-firstShift)))
}

// seed gives an empty list its chunk table and first chunk out of memory the
// caller allocated along with something else.
func (l *List[T]) seed(table [][]T, first *[firstChunk]T) {
	l.chunks = append(table[:0], first[:])
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

// Trim frees the chunks Reset kept that hold no record.
func (l *List[T]) Trim() {
	used := 0
	if l.n > 0 {
		used, _ = locate(l.n - 1)
		used++
	}
	clear(l.chunks[used:])
	l.chunks = l.chunks[:used]
}
