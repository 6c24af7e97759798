package spill

import (
	"encoding/binary"
	"strings"
)

// Records is a sequence of shuffle records held in columns rather than one
// struct each: a partition of a Buffer, and what a reduce task fetches its
// partitions into. A key of at most eight bytes is stored as the (prefix,
// length) a KeyIndex abbreviates it to, which is all of it; the values are
// one column, a []T when every value so far is of one pointer-free type
// registered with Register and a []any otherwise. So a partition of short
// keys and such values — rid pairs to overlap counts, token ids to
// frequencies — holds no pointer and costs the garbage collector nothing to
// keep. The zero value is empty.
type Records struct {
	heads List[head]
	// long holds the full key of every record once any key is longer than
	// eight bytes: empty until then, indexed by position from then on, ""
	// where the head says everything.
	long  List[string]
	vals  values // nil until the first record
	bytes int64
}

// head is the fixed-size part of one record.
type head struct {
	prefix uint64 // KeyIndex.Prefix
	// meta packs the rest into one word, so that a head is sixteen bytes:
	// the accounted size above bit 5; bit 4, pinned — the value has no
	// codec, the record stays when its buffer spills; and in the low four
	// bits KeyIndex.Len, the key's length capped at nine.
	meta uint64
}

const headPinned = 1 << 4

func makeHead(k KeyIndex, bytes int64, pinned bool) head {
	h := head{prefix: k.Prefix, meta: uint64(bytes)<<5 | uint64(k.Len)}
	if pinned {
		h.meta |= headPinned
	}
	return h
}

func (h head) len() uint8    { return uint8(h.meta & 15) }
func (h head) pinned() bool  { return h.meta&headPinned != 0 }
func (h head) bytes() int64  { return int64(h.meta >> 5) }
func (h head) key() KeyIndex { return KeyIndex{Prefix: h.prefix, Len: h.len()} }

// Len returns the number of records.
func (r *Records) Len() int { return r.heads.Len() }

// Bytes returns the records' accounted bytes.
func (r *Records) Bytes() int64 { return r.bytes }

// Append stores one record of the given accounted size.
func (r *Records) Append(key string, v any, bytes int64) {
	r.append(MakeKeyIndex(key, 0), key, v, bytes, false)
}

// column returns the value column, made for v when v is the first value.
func (r *Records) column(v any) values {
	if r.vals == nil {
		r.vals = columnFor(v)
	}
	return r.vals
}

func (r *Records) append(k KeyIndex, key string, v any, bytes int64, pinned bool) {
	if k.Len == 9 || r.long.Len() > 0 {
		r.padLong()
		if k.Len < 9 {
			key = ""
		}
		r.long.Append(key)
	}
	r.heads.Append(makeHead(k, bytes, pinned))
	r.bytes += bytes
	if !r.column(v).add(v) {
		r.vals = r.vals.boxed()
		r.vals.add(v)
	}
}

// appendFrom is append of src's value i, copied column to column when both
// hold one type, into a column of src's kind. It repeats append's head: a
// shared one is a call more on Add's path, measurably slower.
func (r *Records) appendFrom(k KeyIndex, key string, src values, i int, bytes int64, pinned bool) {
	if r.vals == nil {
		r.vals = src.empty()
	}
	if !r.vals.addFrom(src, i) {
		r.append(k, key, src.at(i), bytes, pinned)
		return
	}
	if k.Len == 9 || r.long.Len() > 0 {
		r.padLong()
		if k.Len < 9 {
			key = ""
		}
		r.long.Append(key)
	}
	r.heads.Append(makeHead(k, bytes, pinned))
	r.bytes += bytes
}

// padLong brings long up to one entry per record.
func (r *Records) padLong() {
	for r.long.Len() < r.heads.Len() {
		r.long.Append("")
	}
}

// appendAll stores src's records after r's own, column by column: nothing
// is boxed unless the two hold values of different types.
func (r *Records) appendAll(src *Records) {
	if src.Len() == 0 {
		return
	}
	if src.long.Len() > 0 || r.long.Len() > 0 {
		r.padLong()
		r.long.AppendList(&src.long)
	}
	r.heads.AppendList(&src.heads)
	if r.long.Len() > 0 {
		r.padLong()
	}
	r.bytes += src.bytes
	if r.vals == nil {
		r.vals = src.vals.empty()
	}
	if !r.vals.addAll(src.vals) {
		r.vals = r.vals.boxed()
		for i := 0; i < src.Len(); i++ {
			r.vals.add(src.vals.at(i))
		}
	}
}

// longKey returns the key at pos, which must be longer than eight bytes.
func (r *Records) longKey(pos int32) string { return *r.long.At(int(pos)) }

// KeyArena turns stored keys back into strings, carving the short ones out
// of one allocation instead of making one each.
type KeyArena struct {
	b strings.Builder
	n int // how many keys it may be asked for
}

// NewKeyArena returns an arena for about n keys.
func NewKeyArena(n int) *KeyArena { return &KeyArena{n: n} }

// Key returns record i's key, a key of at most eight bytes cut out of a.
func (r *Records) Key(i int, a *KeyArena) string {
	h := r.heads.At(i)
	if h.len() == 9 {
		return *r.long.At(i)
	}
	if a.b.Cap() == 0 {
		a.b.Grow(8 * a.n)
	}
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], h.prefix)
	// Should the arena be asked for more than it said, the builder grows
	// and the strings it handed out keep the bytes they were cut from.
	off := a.b.Len()
	a.b.Write(k[:h.len()])
	return a.b.String()[off:]
}

// Each calls emit with every record in order, until it returns false.
func (r *Records) Each(emit func(key string, v any, bytes int64) bool) {
	a := NewKeyArena(r.Len())
	for i := 0; i < r.Len(); i++ {
		if !emit(r.Key(i, a), r.vals.at(i), r.heads.At(i).bytes()) {
			return
		}
	}
}

// At returns record i's key and value.
func (r *Records) At(i int) (key string, v any) {
	return r.Key(i, NewKeyArena(1)), r.vals.at(i)
}

// appendRecord appends record i in AppendRecord's form.
func (r *Records) appendRecord(buf []byte, i int) ([]byte, error) {
	h := r.heads.At(i)
	out := buf
	if h.len() == 9 {
		key := *r.long.At(i)
		out = append(binary.AppendUvarint(out, uint64(len(key))), key...)
	} else {
		out = append(out, h.len())
		out = binary.BigEndian.AppendUint64(out, h.prefix)[:len(out)+int(h.len())]
	}
	at := len(out)
	out, err := r.vals.appendValue(out, i)
	if err != nil {
		return buf, err
	}
	return frameValue(out, at), nil
}

// sortedIndex appends to idx a key index over the records — the pinned
// ones only when asked — in record order, as SortIndex wants it, and sorts
// it.
func (r *Records) sortedIndex(idx []KeyIndex, pinned bool) ([]KeyIndex, error) {
	if err := Indexable(r.Len()); err != nil {
		return nil, err
	}
	for i := 0; i < r.Len(); i++ {
		if h := r.heads.At(i); pinned || !h.pinned() {
			idx = append(idx, KeyIndex{Prefix: h.prefix, Len: h.len(), Pos: int32(i)})
		}
	}
	SortIndex(idx, r.longKey)
	return idx, nil
}

// reset empties the records, keeping their memory and the kind of column.
func (r *Records) reset() {
	r.heads.Reset()
	r.long.Reset()
	if r.vals != nil {
		r.vals.reset()
	}
	r.bytes = 0
}

// trim frees the memory reset kept that holds no record.
func (r *Records) trim() {
	r.heads.Trim()
	r.long.Trim()
	if r.vals != nil {
		r.vals.trim()
	}
}

// Groups is a Records cut into key groups, in key order: group g has key
// Keys[g] and accounted size Sizes[g].
type Groups struct {
	Keys  []string
	Sizes []int64
	// A folded group is one accumulator in accs; otherwise group g's values
	// are vals[starts[g]:starts[g+1]], in record order.
	accs   values
	vals   []any
	starts []int32
}

// Group sorts an index over the records by (key, position) and sweeps it
// once, cutting a group wherever the key changes. With a fold, each
// group's values are folded in record order into one accumulator — in
// place in a []T when the column is typed and typed (see Config.TypedFold)
// offers the fold unboxed, through fold otherwise; without one the values
// are boxed for Values to hand out.
func (r *Records) Group(fold func(acc, v any) any, typed any) (*Groups, error) {
	n := r.Len()
	idx, err := r.sortedIndex(make([]KeyIndex, 0, n), true)
	if err != nil {
		return nil, err
	}
	// starts[g] is where group g begins in idx; found on the index alone
	// so the group arrays below are allocated at their size.
	starts := make([]int32, 0, n+1)
	for i := range idx {
		if i == 0 || CompareKeys(idx[i-1], idx[i], r.longKey) != 0 {
			starts = append(starts, int32(i))
		}
	}
	groups := len(starts)
	starts = append(starts, int32(n))
	g := &Groups{Keys: make([]string, groups), Sizes: make([]int64, groups)}
	a := NewKeyArena(groups)
	for i := 0; i < groups; i++ {
		g.Keys[i] = r.Key(int(idx[starts[i]].Pos), a)
		for _, ix := range idx[starts[i]:starts[i+1]] {
			g.Sizes[i] += r.heads.At(int(ix.Pos)).bytes()
		}
	}
	switch {
	case n == 0:
	case fold != nil:
		g.accs = r.vals.foldGroups(idx, starts, &folder{boxed: fold, typed: typed})
	default:
		g.starts = starts
		g.vals = make([]any, n)
		for i, ix := range idx {
			g.vals[i] = r.vals.at(int(ix.Pos))
		}
	}
	return g, nil
}

// Acc returns folded group i's accumulator.
func (g *Groups) Acc(i int) any { return g.accs.at(i) }

// Values returns unfolded group i's values, the slice's capacity capped so
// that appending to it cannot write into the next group.
func (g *Groups) Values(i int) []any {
	return g.vals[g.starts[i]:g.starts[i+1]:g.starts[i+1]]
}
