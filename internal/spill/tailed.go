package spill

import (
	"math/bits"
	"reflect"
	"slices"
	"unsafe"
)

// A tailed column holds values of a type registered with RegisterTailed —
// a pointer-free head and one []uint32 tail, such as a record segment and
// its tokens — unboxed: the heads in a List, and the tails one after
// another in chunks of words, each tail whole in one chunk. Head chunks
// and word chunks come from pools and go back to them on release, so a
// partition of such values holds no pointer the collector scans and, once
// released, nothing it must collect. Values are encoded, decoded and
// accounted through the type's Codec as any other value, so frames and
// accounted sizes do not depend on the column a value sits in.
type tailed[T, H any] struct {
	heads List[tailEntry[H]]
	words tailWords
	k     *tailKind[T, H]

	// The chunk tables and first chunks of heads and words, allocated with
	// the column, as a column[T]'s are: a job has map tasks × reduce tasks
	// partitions, and most hold a few values.
	table  [4][]tailEntry[H]
	first  [firstChunk]tailEntry[H]
	wtable [4][]uint32
	wfirst [tailSeedWords]uint32
}

func newTailed[T, H any](k *tailKind[T, H]) *tailed[T, H] {
	c := &tailed[T, H]{k: k}
	c.heads.seed(c.table[:], &c.first)
	c.words.chunks = append(c.wtable[:0], c.wfirst[:])
	return c
}

// tailEntry is one value of a tailed column: its head, and where its tail
// is among the column's word chunks.
type tailEntry[H any] struct {
	head          H
	chunk, off, n int32
}

// tailKind is what a tailed column knows of its type: the tag and codec
// Register installs, and how a value comes apart into its head and tail
// and back together.
type tailKind[T, H any] struct {
	tag   byte
	codec *Codec[T]
	split func(T) (H, []uint32)
	join  func(H, []uint32) T
}

// RegisterTailed is Register for a type T that is a pointer-free head H
// and one []uint32 tail: split takes a value apart, and join builds one
// out of a head and a tail, which it must keep as it is given — a view
// into the column, for a reader of AppendGroupValues. The shuffle then
// holds a partition's values of type T in a tailed column rather than a
// []T, and a spilled value's tail, where its Codec reads it with
// Dec.U32s, is decoded straight into the column.
func RegisterTailed[T, H any](tag byte, c Codec[T], split func(T) (H, []uint32), join func(H, []uint32) T) {
	if h := reflect.TypeFor[H](); !pointerFree(h) {
		panic("spill: RegisterTailed of " + reflect.TypeFor[T]().String() + " with a head that holds a pointer, " + h.String())
	}
	k := register(tag, c)
	tk := &tailKind[T, H]{tag: tag, codec: &c, split: split, join: join}
	k.column = func() values { return newTailed(tk) }
	chunkPools[reflect.TypeFor[tailEntry[H]]()] = new(chunkPool[tailEntry[H]])
}

// tailedOf is the unboxed surface of a tailed column of T, whatever its head.
type tailedOf[T any] interface {
	values
	// put appends v, copying its tail into the column.
	put(v T)
	// size returns v's accounted bytes, its Codec.Size.
	size(v T) int
	// appendTo appends values lo to hi-1 to dst, their tails views into
	// the column.
	appendTo(dst []T, lo, hi int) []T
}

func (c *tailed[T, H]) put(v T) { c.heads.Append(c.entry(c.k.split(v))) }

// entry stores tail in the column and returns the entry of a value of
// head h and that tail.
func (c *tailed[T, H]) entry(h H, tail []uint32) tailEntry[H] {
	chunk, off := c.words.add(tail)
	return tailEntry[H]{head: h, chunk: chunk, off: off, n: int32(len(tail))}
}

func (c *tailed[T, H]) size(v T) int { return c.k.codec.Size(v) }

// tail returns e's tail, a view into the column.
func (c *tailed[T, H]) tail(e *tailEntry[H]) []uint32 { return c.words.view(e.chunk, e.off, e.n) }

func (c *tailed[T, H]) get(i int) T {
	e := c.heads.At(i)
	return c.k.join(e.head, c.tail(e))
}

func (c *tailed[T, H]) appendTo(dst []T, lo, hi int) []T {
	dst = slices.Grow(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.get(i))
	}
	return dst
}

func (c *tailed[T, H]) elem() reflect.Type { return reflect.TypeFor[T]() }

func (c *tailed[T, H]) add(v any) bool {
	x, ok := v.(T)
	if ok {
		c.put(x)
	}
	return ok
}

func (c *tailed[T, H]) addFrom(src values, i int) bool {
	s, ok := src.(*tailed[T, H])
	if ok {
		e := s.heads.At(i)
		c.heads.Append(c.entry(e.head, s.tail(e)))
	}
	return ok
}

// at returns value i boxed, with a tail of its own: a box may outlive the
// column, whose chunks are reused once it is released.
func (c *tailed[T, H]) at(i int) any {
	e := c.heads.At(i)
	return c.k.join(e.head, slices.Clone(c.tail(e)))
}

// set stores v's tail where it fits, as an append does, and points value
// i at it: the tail it replaces stays where it was, unread, until the
// column is reset or released.
func (c *tailed[T, H]) set(i int, v any) bool {
	x, ok := v.(T)
	if ok {
		*c.heads.At(i) = c.entry(c.k.split(x))
	}
	return ok
}

func (c *tailed[T, H]) empty() values { return newTailed(c.k) }

// A tailed column has no unboxed fold: its groups fold boxed.
func (c *tailed[T, H]) fold(int, any, *folder) bool             { return false }
func (c *tailed[T, H]) foldFrom(int, values, int, *folder) bool { return false }
func (c *tailed[T, H]) foldGroups(s *sources, idx []KeyIndex, starts []int32, f *folder) (values, error) {
	return foldBoxed(c, s, idx, starts, f)
}

// gather copies the heads and takes the tails where they lie: every
// source column's word chunks move to the new column, once per column
// however many sources share it, and the heads are renumbered into them.
// A source column is left with no words, to be released only.
func (c *tailed[T, H]) gather(s *sources, idx []KeyIndex) values {
	cols := sourceColumns[*tailed[T, H]](s)
	out := newTailed(c.k)
	first := make([]int32, len(cols)) // where each column's chunks start in out
	for i, col := range cols {
		if j := slices.Index(cols[:i], col); j >= 0 {
			first[i] = first[j]
			continue
		}
		first[i] = int32(len(out.words.chunks))
		out.words.chunks = append(out.words.chunks, col.words.chunks...)
		col.words = tailWords{}
	}
	out.words.cur = len(out.words.chunks) // nothing is added to a gathered column
	for _, ix := range idx {
		e := *cols[ix.Src].heads.At(int(ix.Pos + s.off[ix.Src]))
		e.chunk += first[ix.Src]
		out.heads.Append(e)
	}
	return out
}

func (c *tailed[T, H]) appendValue(buf []byte, i int) []byte {
	return c.k.codec.Append(append(buf, c.k.tag), c.get(i))
}

// decode reads the value through the codec with d lending its tail
// (Dec.U32s), and copies the tail into the column.
func (c *tailed[T, H]) decode(d *Dec) bool {
	if d.b[d.at] != c.k.tag {
		return false
	}
	d.at++
	d.lend = true
	x := c.k.codec.Read(d)
	d.lend = false
	if d.consumed(); d.err == nil {
		c.put(x)
	}
	return true
}

func (c *tailed[T, H]) reset() {
	c.heads.Reset()
	c.words.reset()
}

func (c *tailed[T, H]) trim() {
	c.heads.Trim()
	c.words.trim()
}

func (c *tailed[T, H]) release() {
	c.heads.release()
	c.words.release()
}

// tailWords holds a tailed column's tails, each contiguous in one chunk.
// A column's first chunk is its own tailSeedWords; after it, chunk k holds
// 1<<(tailFirstShift+k) words up to 1<<tailMaxShift, or a tail longer
// than that rounded up to a power of two. Chunks come from wordPools and
// go back on release and trim, but a first chunk, which is left to the
// collector with its column; reset keeps them, to be filled again from
// the first.
type tailWords struct {
	chunks [][]uint32 // each chunk's len is its cap
	cur    int        // the chunk being filled
	used   int        // words of chunks[cur] in use
}

// A partition's first word chunk is small, as a List's first chunk is:
// most partitions of a job hold a few values.
const (
	tailSeedWords  = 32
	tailFirstShift = 7
	tailMaxShift   = 13
)

// wordPools holds word chunks given back, one free list per power-of-two
// size, each chunk as a pointer to its first word.
var wordPools [32]freeList[*uint32]

// add stores tail and returns where it is.
func (w *tailWords) add(tail []uint32) (chunk, off int32) {
	n := len(tail)
	if n == 0 {
		return 0, 0
	}
	for w.cur < len(w.chunks) && len(w.chunks[w.cur])-w.used < n {
		w.cur, w.used = w.cur+1, 0
	}
	if w.cur == len(w.chunks) {
		if w.chunks == nil {
			w.chunks = make([][]uint32, 0, 4)
		}
		shift := max(tailFirstShift+min(len(w.chunks), tailMaxShift-tailFirstShift), bits.Len(uint(n-1)))
		w.chunks = append(w.chunks, takeWords(shift))
		w.used = 0
	}
	chunk, off = int32(w.cur), int32(w.used)
	copy(w.chunks[w.cur][w.used:], tail)
	w.used += n
	return chunk, off
}

// view returns the n words at off in chunk, the capacity capped so that
// appending to them cannot write into the next tail; nil when n is 0.
func (w *tailWords) view(chunk, off, n int32) []uint32 {
	if n == 0 {
		return nil
	}
	return w.chunks[chunk][off : off+n : off+n]
}

// reset empties w, keeping its chunks.
func (w *tailWords) reset() { w.cur, w.used = 0, 0 }

// trim gives back the chunks that hold no tail.
func (w *tailWords) trim() {
	inUse := w.cur
	if w.used > 0 {
		inUse++
	}
	for _, c := range w.chunks[inUse:] {
		putWords(c)
	}
	clear(w.chunks[inUse:])
	w.chunks = w.chunks[:inUse]
}

// release gives back every chunk; nothing may read a tail of w after.
func (w *tailWords) release() {
	w.reset()
	w.trim()
	*w = tailWords{}
}

// takeWords returns a chunk of 1<<shift words, from its pool when it has
// one. Its words are not cleared: a tail is read only where it was written.
func takeWords(shift int) []uint32 {
	if c, ok := wordPools[shift].take(); ok {
		return unsafe.Slice(c, 1<<shift)
	}
	return make([]uint32, 1<<shift)
}

// putWords gives back a chunk of takeWords'; a column's first chunk, the
// only one shorter, is not pooled.
func putWords(c []uint32) {
	if len(c) < 1<<tailFirstShift {
		return
	}
	wordPools[bits.Len(uint(len(c)))-1].give(&c[0], 4*int64(len(c)))
}
