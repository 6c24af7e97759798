package spill

import (
	"encoding/binary"
	"fmt"
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
	// the accounted size above bit 4, and in the low four bits
	// KeyIndex.Len, the key's length capped at nine.
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

// Append stores one record of the given accounted size.
func (r *Records) Append(key string, v any, bytes int64) {
	r.append(MakeKeyIndex(key, 0), key, v, bytes)
}

// AppendTyped is Append of a record whose key k abbreviates — a key of at
// most eight bytes, which k holds whole — and whose value v is stored
// unboxed, accounted at overhead plus its Codec.Size. It does so only when
// the column already holds values of v's registered, pointer-free type and
// no key so far was longer than eight bytes, and reports whether it did;
// otherwise it stores nothing and the caller appends the record boxed,
// which is how a partition's first value picks its column and how a column
// changes kind.
func AppendTyped[T any](r *Records, k KeyIndex, v T, overhead int64) bool {
	c, ok := r.vals.(*column[T])
	if !ok || c.codec == nil || k.Len > 8 || r.long.Len() > 0 {
		return false
	}
	bytes := overhead + int64(c.codec.Size(v))
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
	c.vals.Append(v)
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

func (r *Records) append(k KeyIndex, key string, v any, bytes int64) {
	if k.Len == 9 || r.long.Len() > 0 {
		r.padLong()
		if k.Len < 9 {
			key = ""
		}
		r.long.Append(key)
	}
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
// hold one type, into a column of src's kind; key is read only when k says
// it is longer than eight bytes. It repeats append's head: a
// shared one is a call more on Add's path, measurably slower.
func (r *Records) appendFrom(k KeyIndex, key string, src values, i int, bytes int64) {
	if r.vals == nil {
		r.vals = src.empty()
	}
	if !r.vals.addFrom(src, i) {
		r.append(k, key, src.at(i), bytes)
		return
	}
	if k.Len == 9 || r.long.Len() > 0 {
		r.padLong()
		if k.Len < 9 {
			key = ""
		}
		r.long.Append(key)
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
	key := ""
	if h.len() == 9 {
		key = *src.long.At(i)
	}
	r.appendFrom(h.key(), key, src.vals, i, h.bytes())
}

// padLong brings long up to one entry per record.
func (r *Records) padLong() {
	for r.long.Len() < r.heads.Len() {
		r.long.Append("")
	}
}

// longKey returns the key of the record k stands for, which must be longer
// than eight bytes.
func (r *Records) longKey(k KeyIndex) string { return *r.long.At(int(k.Pos)) }

// KeyArena turns stored keys back into strings, carving the short ones out
// of one allocation instead of making one each. The zero value is an arena
// that grows as it is asked.
type KeyArena struct {
	b strings.Builder
	n int // how many keys it may be asked for
}

// NewKeyArena returns an arena for about n keys.
func NewKeyArena(n int) *KeyArena { return &KeyArena{n: n} }

// short returns the key of at most eight bytes k holds, cut out of a.
func (a *KeyArena) short(k KeyIndex) string {
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

// shortKey is the key of at most eight bytes k holds, a string of its own.
func shortKey(k KeyIndex) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k.Prefix)
	return string(b[:k.Len])
}

// Key returns record i's key, a key of at most eight bytes cut out of a.
func (r *Records) Key(i int, a *KeyArena) string {
	h := r.heads.At(i)
	if h.len() == 9 {
		return *r.long.At(i)
	}
	return a.short(h.key())
}

// Abbrev returns record i's key abbreviated, with position 0: for a key of
// at most eight bytes, all of it.
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

// Groups is records cut into key groups, in key order: group g has the
// key Abbrev(g) abbreviates — Key(g, a) as a string — and accounted size
// Sizes[g]. A Groups holds nothing of the records it was cut from, and
// nothing a reader changes: the attempts of one reduce task and skip
// mode's probes read the one Groups in turn, each building key strings in
// an arena of its own.
type Groups struct {
	Sizes []int64
	keys  []KeyIndex // group g's key abbreviated, position 0
	long  []string   // group g's key where longer than eight bytes; nil when none is
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

func (s *sources) longKey(k KeyIndex) string {
	r, i := s.at(k)
	return *r.long.At(i)
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
// without one the values are boxed for Values to hand out. The index is
// borrowed from a pool and given back before Group returns.
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
	p := getIndex(n)
	defer putIndex(p)
	idx := *p
	for si, src := range s.srcs {
		for i := src.Lo; i < src.Hi; i++ {
			h := src.Recs.heads.At(i)
			idx = append(idx, KeyIndex{Prefix: h.prefix, Len: h.len(), Src: uint16(si), Pos: int32(len(idx))})
		}
	}
	SortIndex(idx, s.longKey)
	// starts[g] is where group g begins in idx; found on the index alone
	// so the group arrays below are allocated at their size.
	starts := make([]int32, 0, n+1)
	for i := range idx {
		if i == 0 || CompareKeys(idx[i-1], idx[i], s.longKey) != 0 {
			starts = append(starts, int32(i))
		}
	}
	groups := len(starts)
	starts = append(starts, int32(n))
	g := &Groups{Sizes: make([]int64, groups), keys: make([]KeyIndex, groups)}
	for i := 0; i < groups; i++ {
		first := idx[starts[i]]
		g.keys[i] = KeyIndex{Prefix: first.Prefix, Len: first.Len}
		if first.Len == 9 {
			if g.long == nil {
				g.long = make([]string, groups)
			}
			g.long[i] = s.longKey(first)
		}
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
		g.starts = starts
		g.vals = make([]any, n)
		for i, ix := range idx {
			g.vals[i] = s.value(ix)
		}
	}
	return g, nil
}

// Len returns the number of groups.
func (g *Groups) Len() int { return len(g.keys) }

// Abbrev returns group i's key abbreviated, with position 0: for a key of
// at most eight bytes, all of it.
func (g *Groups) Abbrev(i int) KeyIndex { return g.keys[i] }

// Key returns group i's key, a key of at most eight bytes cut out of a.
func (g *Groups) Key(i int, a *KeyArena) string {
	if k := g.keys[i]; k.Len < 9 {
		return a.short(k)
	}
	return g.long[i]
}

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
