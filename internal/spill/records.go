package spill

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// Records is a sequence of shuffle records held in columns rather than one
// struct each: a partition of a Buffer, and what a reduce task fetches its
// partitions into. A key — at most MaxKeyLen bytes — is stored as the
// (prefix, length) a KeyIndex abbreviates it to, which is all of it; the
// values are one column, a []T when every value so far is of one
// pointer-free type registered with Register and a []any otherwise. So a
// partition of such values — rid pairs to overlap counts, token ids to
// frequencies — holds no pointer and costs the garbage collector nothing to
// keep, and its chunks go back to a pool when the records are released
// (Release) rather than to the garbage collector. The zero value is empty.
type Records struct {
	heads List[head]
	vals  values // nil until the first record
	bytes int64
}

// head is the fixed-size part of one record.
type head struct {
	prefix uint64 // KeyIndex.Prefix
	// meta packs the rest into one word, so that a head is sixteen bytes:
	// the accounted size above bit 4, and in the low four bits
	// KeyIndex.Len, the key's length.
	meta uint64
}

func makeHead(k KeyIndex, bytes int64) head {
	return head{prefix: k.Prefix, meta: uint64(bytes)<<4 | uint64(k.Len)}
}

func (h head) len() uint8    { return uint8(h.meta & 15) }
func (h head) bytes() int64  { return int64(h.meta >> 4) }
func (h head) key() KeyIndex { return KeyIndex{Prefix: h.prefix, Len: h.len()} }

// Len returns the number of records.
func (r *Records) Len() int { return r.heads.Len() }

// Bytes returns the records' accounted bytes.
func (r *Records) Bytes() int64 { return r.bytes }

// Append stores one record of the given accounted size. It panics on a key
// longer than MaxKeyLen (MakeKeyIndex).
func (r *Records) Append(key string, v any, bytes int64) {
	r.append(MakeKeyIndex(key, 0), v, bytes)
}

// AppendTyped is Append of a record whose key k holds and whose value v is
// stored unboxed, accounted at overhead plus its Codec.Size. It does so
// only when the column already holds values of v's registered,
// pointer-free type, and reports whether it did;
// otherwise it stores nothing and the caller appends the record boxed,
// which is how a partition's first value picks its column and how a column
// changes kind.
func AppendTyped[T any](r *Records, k KeyIndex, v T, overhead int64) bool {
	c := typedColumn[T](r)
	if c == nil {
		return false
	}
	appendTyped(r, c, k, v, overhead+int64(c.codec.Size(v)))
	return true
}

// typedColumn returns r's column if it holds values of T's registered,
// pointer-free type, so that a T can join it without a box; nil if not.
func typedColumn[T any](r *Records) *column[T] {
	c, ok := r.vals.(*column[T])
	if !ok || c.codec == nil {
		return nil
	}
	return c
}

// appendTyped appends a record of key k and value v, c being r's column.
func appendTyped[T any](r *Records, c *column[T], k KeyIndex, v T, bytes int64) {
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
	c.vals.Append(v)
}

// EachTyped calls fn with every record's key, abbreviated, and value in
// order, when the values sit unboxed in a column of T's registered type;
// it reports false, having called nothing, otherwise. Records with no
// record are read as either.
func EachTyped[T any](r *Records, fn func(k KeyIndex, v T)) bool {
	if r.Len() == 0 {
		return true
	}
	c := typedColumn[T](r)
	if c == nil {
		return false
	}
	for i := 0; i < r.Len(); i++ {
		fn(r.heads.At(i).key(), *c.vals.At(i))
	}
	return true
}

// Column names the value column's Go type — a column of one value type, or
// of any — and is "" before the first record.
func (r *Records) Column() string {
	if r.vals == nil {
		return ""
	}
	return fmt.Sprintf("%T", r.vals)
}

func (r *Records) append(k KeyIndex, v any, bytes int64) {
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
	if r.vals == nil {
		r.vals = columnFor(v)
	}
	if !r.vals.add(v) {
		r.vals = r.vals.boxed()
		r.vals.add(v)
	}
}

// appendFrom is append of src's value i, copied column to column when both
// hold one type, into a column of src's kind. It repeats append's head: a
// shared one is a call more on Add's path, measurably slower.
func (r *Records) appendFrom(k KeyIndex, src values, i int, bytes int64) {
	if r.vals == nil {
		r.vals = src.empty()
	}
	if !r.vals.addFrom(src, i) {
		r.append(k, src.at(i), bytes)
		return
	}
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
}

// decode appends a record of key k whose value is what d has left — tag
// and payload — and whose accounted size is bytes: a value of the type of
// a typed column read straight into it, any other value boxed and
// appended as append appends it. If d fails, nothing is appended.
func (r *Records) decode(k KeyIndex, d *Dec, bytes int64) {
	if r.vals == nil || !r.vals.decode(d) {
		if v := d.value(); d.err == nil {
			r.append(k, v, bytes)
		}
		return
	}
	if d.err != nil {
		return
	}
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
}

// foldAt folds v into the value of record i, whose key is key: in place
// through f's unboxed form where the column has one, and otherwise through
// its boxed form, after which the record is accounted anew with size — the
// accumulator may come back as anything. It returns how many bytes the
// record's accounted size grew by.
func (r *Records) foldAt(i int, key string, v any, f *folder, size func(key string, v any) int64) int64 {
	if r.vals.fold(i, v, f) {
		return 0
	}
	acc := f.boxed(r.vals.at(i), v)
	if !r.vals.set(i, acc) {
		r.vals = r.vals.boxed()
		r.vals.set(i, acc)
	}
	h := r.heads.At(i)
	grew := size(key, acc) - h.bytes()
	r.bytes += grew
	*h = makeHead(h.key(), h.bytes()+grew)
	return grew
}

// appendAt appends src's record i, column to column where they agree.
func (r *Records) appendAt(src *Records, i int) {
	h := src.heads.At(i)
	r.appendFrom(h.key(), src.vals, i, h.bytes())
}

// KeyArena turns stored keys back into strings, carving them out of one
// allocation instead of making one each. The zero value is an arena
// that grows as it is asked.
type KeyArena struct {
	b strings.Builder
	n int // how many keys it may be asked for
}

// NewKeyArena returns an arena for about n keys.
func NewKeyArena(n int) *KeyArena { return &KeyArena{n: n} }

// Short returns the key k holds, cut out of a.
func (a *KeyArena) Short(k KeyIndex) string {
	if a.b.Cap() == 0 {
		a.b.Grow(8 * a.n)
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k.Prefix)
	// Should the arena be asked for more than it said, the builder grows
	// and the strings it handed out keep the bytes they were cut from.
	off := a.b.Len()
	a.b.Write(b[:k.Len])
	return a.b.String()[off:]
}

// ShortKey is the key k holds, a string of its own.
func ShortKey(k KeyIndex) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k.Prefix)
	return string(b[:k.Len])
}

// Key returns record i's key, cut out of a.
func (r *Records) Key(i int, a *KeyArena) string { return a.Short(r.heads.At(i).key()) }

// Abbrev returns record i's key abbreviated, with position 0: all of it.
func (r *Records) Abbrev(i int) KeyIndex { return r.heads.At(i).key() }

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

// Frame appends record i to buf in AppendRecord's form, a typed column's
// value encoded unboxed. On error buf is returned as given.
func (r *Records) Frame(buf []byte, i int) ([]byte, error) {
	h := r.heads.At(i)
	// uvarint(len) is one byte for a key of at most MaxKeyLen bytes.
	out := append(buf, h.len())
	out = binary.BigEndian.AppendUint64(out, h.prefix)[:len(out)+int(h.len())]
	at := len(out)
	out, err := r.vals.appendValue(out, i)
	if err != nil {
		return buf, err
	}
	return frameValue(out, at), nil
}

// sortedIndex appends to idx a key index over the records, in record
// order as SortIndex wants it, and sorts it.
func (r *Records) sortedIndex(idx []KeyIndex) ([]KeyIndex, error) {
	if err := Indexable(r.Len()); err != nil {
		return nil, err
	}
	for i := 0; i < r.Len(); i++ {
		h := r.heads.At(i)
		idx = append(idx, KeyIndex{Prefix: h.prefix, Len: h.len(), Pos: int32(i)})
	}
	SortIndex(idx)
	return idx, nil
}

// reset empties the records, keeping their memory and the kind of column.
func (r *Records) reset() {
	r.heads.Reset()
	if r.vals != nil {
		r.vals.reset()
	}
	r.bytes = 0
}

// trim frees the memory reset kept that holds no record.
func (r *Records) trim() {
	r.heads.Trim()
	if r.vals != nil {
		r.vals.trim()
	}
}

// Release empties the records and gives their heads' chunks, and a typed
// column's, back to the pools they came from (List), for the next
// partition to grow into. Only their owner may call it, once it knows
// nothing reads them again: not a record, not a Source over them, not a
// pointer into them. A Groups cut from them holds nothing of them, so
// Release may follow Group.
func (r *Records) Release() {
	r.heads.release()
	if r.vals != nil {
		r.vals.release()
	}
	*r = Records{}
}

// Groups is records cut into key groups, in key order: group g has the
// key Abbrev(g) holds — Key(g, a) as a string — and accounted size
// Sizes[g]. A Groups holds nothing of the records it was cut from, and
// nothing a reader changes: the attempts of one reduce task and skip
// mode's probes read the one Groups in turn, each building key strings in
// an arena of its own.
type Groups struct {
	Sizes []int64
	keys  []KeyIndex // group g's key abbreviated, position 0
	// A folded group is one accumulator in accs; otherwise group g's values
	// are vals[starts[g]:starts[g+1]], in record order.
	accs   values
	vals   []any
	starts []int32
}

// Source is the records at positions [Lo, Hi) of one Records: a reduce
// task groups one per map task, where it lies.
type Source struct {
	Recs   *Records
	Lo, Hi int
}

// sources is what Group indexes: the records of its non-empty sources at
// one position each, ascending across them in order. Position p of source
// s is record p+off[s] of srcs[s].Recs.
type sources struct {
	srcs []Source
	off  []int32
}

// at returns the records and the position in them of the record k stands
// for.
func (s *sources) at(k KeyIndex) (*Records, int) {
	return s.srcs[k.Src].Recs, int(k.Pos + s.off[k.Src])
}

func (s *sources) value(k KeyIndex) any {
	r, i := s.at(k)
	return r.vals.at(i)
}

// Group cuts the records of srcs, taken in order as if concatenated, into
// key groups: it sorts an index over them by (key, position) and sweeps it
// once, cutting a group wherever the key changes, so each group holds its
// values in source then record order. No record is copied. With a fold,
// each group's values are folded in that order into one accumulator — in
// place in a []T when every source holds the same typed column and typed
// (see Config.TypedFold) offers the fold unboxed, through fold otherwise;
// without one the values are boxed for Values to hand out. The index and
// the group bounds are borrowed from pools and given back before Group
// returns.
func Group(srcs []Source, fold func(acc, v any) any, typed any) (*Groups, error) {
	if err := Groupable(len(srcs)); err != nil {
		return nil, err
	}
	var s sources
	n := 0
	for _, src := range srcs {
		if src.Hi > src.Lo {
			s.srcs = append(s.srcs, src)
			s.off = append(s.off, int32(src.Lo-n))
			n += src.Hi - src.Lo
		}
	}
	if err := Indexable(n); err != nil {
		return nil, err
	}
	p := indexPool.get(n)
	defer indexPool.put(p)
	idx := *p
	for si, src := range s.srcs {
		for i := src.Lo; i < src.Hi; i++ {
			h := src.Recs.heads.At(i)
			idx = append(idx, KeyIndex{Prefix: h.prefix, Len: h.len(), Src: uint16(si), Pos: int32(len(idx))})
		}
	}
	SortIndex(idx)
	// starts[g] is where group g begins in idx; found on the index alone
	// so the group arrays below are allocated at their size.
	ps := startsPool.get(n + 1)
	defer startsPool.put(ps)
	starts := *ps
	for i := range idx {
		if i == 0 || CompareKeys(idx[i-1], idx[i]) != 0 {
			starts = append(starts, int32(i))
		}
	}
	groups := len(starts)
	starts = append(starts, int32(n))
	g := &Groups{Sizes: make([]int64, groups), keys: make([]KeyIndex, groups)}
	for i := 0; i < groups; i++ {
		first := idx[starts[i]]
		g.keys[i] = KeyIndex{Prefix: first.Prefix, Len: first.Len}
		for _, ix := range idx[starts[i]:starts[i+1]] {
			r, j := s.at(ix)
			g.Sizes[i] += r.heads.At(j).bytes()
		}
	}
	switch {
	case n == 0:
	case fold != nil:
		g.accs = s.srcs[0].Recs.vals.foldGroups(&s, idx, starts, &folder{boxed: fold, typed: typed})
	default:
		g.starts = slices.Clone(starts)
		g.vals = make([]any, n)
		for i, ix := range idx {
			g.vals[i] = s.value(ix)
		}
	}
	return g, nil
}

// startsPool holds Group's group bounds, one per record at most.
var startsPool slicePool[int32]

// Len returns the number of groups.
func (g *Groups) Len() int { return len(g.keys) }

// Abbrev returns group i's key abbreviated, with position 0: all of it.
func (g *Groups) Abbrev(i int) KeyIndex { return g.keys[i] }

// Key returns group i's key, cut out of a.
func (g *Groups) Key(i int, a *KeyArena) string { return a.Short(g.keys[i]) }

// Acc returns folded group i's accumulator.
func (g *Groups) Acc(i int) any { return g.accs.at(i) }

// GroupAcc returns folded group i's accumulator unboxed, when the groups
// were folded in a column of T's registered, pointer-free type; false
// otherwise, and Acc has it.
func GroupAcc[T any](g *Groups, i int) (T, bool) {
	if c, ok := g.accs.(*column[T]); ok && c.codec != nil {
		return *c.vals.At(i), true
	}
	var zero T
	return zero, false
}

// Values returns unfolded group i's values, the slice's capacity capped so
// that appending to it cannot write into the next group.
func (g *Groups) Values(i int) []any {
	return g.vals[g.starts[i]:g.starts[i+1]:g.starts[i+1]]
}
