package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// Records is a sequence of shuffle records held in columns rather than one
// struct each: a partition of a Buffer, and what a reduce task fetches its
// partitions into. A key — at most MaxKeyLen bytes — is stored as the
// (prefix, length) a KeyIndex abbreviates it to, which is all of it; the
// values are of one registered type, in that type's column: a []T for a
// type registered with Register, heads and word tails for one registered
// with RegisterTailed. The first value picks the column; a value of no
// registered type is refused with ErrNoCodec, and one of another type than
// the column's with ErrMixedValues. So a partition of pointer-free values
// — rid pairs to overlap counts, token ids to frequencies, record segments
// — holds no pointer and costs the garbage collector nothing to keep, and
// its chunks go back to a pool when the records are released (Release)
// rather than to the garbage collector. The zero value is empty.
type Records struct {
	heads List[head]
	vals  values // nil until the first record
	bytes int64
}

// headSeed is a partition's first head chunk and chunk table, allocated
// with its buffer (List.seed).
type headSeed struct {
	table [4][]head
	first [firstChunk]head
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

// Append stores one record of the given accounted size: ErrNoCodec, or
// ErrMixedValues, and nothing stored, when v cannot join the column. It
// panics on a key longer than MaxKeyLen (MakeKeyIndex).
func (r *Records) Append(key string, v any, bytes int64) error {
	return r.append(MakeKeyIndex(key, 0), v, bytes)
}

// AppendTyped is Append of a record whose key k holds and whose value v is
// stored unboxed, accounted at overhead plus its Codec.Size: into a column
// made from T's registered type when r has none yet, and otherwise refused
// as Append refuses a value.
func AppendTyped[T any](r *Records, k KeyIndex, v T, overhead int64) error {
	if r.vals == nil {
		if err := r.hold(reflect.TypeFor[T]()); err != nil {
			return err
		}
	}
	bytes := overhead
	switch c := r.vals.(type) {
	case *column[T]:
		bytes += int64(c.codec.Size(v))
		c.vals.Append(v)
	case tailedOf[T]:
		bytes += int64(c.size(v))
		c.put(v)
	default:
		return refused(r.vals, reflect.TypeFor[T]())
	}
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
	return nil
}

// EachTyped calls fn with every record's key, abbreviated, and value in
// order. The values must sit in a column of T, else it panics.
func EachTyped[T any](r *Records, fn func(k KeyIndex, v T)) {
	for i := 0; i < r.Len(); i++ {
		fn(r.heads.At(i).key(), *r.vals.(*column[T]).vals.At(i))
	}
}

// Column names the value column's Go type, and is "" before the first
// record.
func (r *Records) Column() string {
	if r.vals == nil {
		return ""
	}
	return fmt.Sprintf("%T", r.vals)
}

// hold gives r, which has no column, one for values of type t: ErrNoCodec
// when t is not registered.
func (r *Records) hold(t reflect.Type) error {
	k := kindsByType[t]
	if k == nil {
		return refused(nil, t)
	}
	r.vals = k.column()
	return nil
}

func (r *Records) append(k KeyIndex, v any, bytes int64) error {
	if r.vals == nil {
		if err := r.hold(reflect.TypeOf(v)); err != nil {
			return err
		}
	}
	if !r.vals.add(v) {
		return refused(r.vals, reflect.TypeOf(v))
	}
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
	return nil
}

// appendFrom is append of src's value i, copied column to column, into a
// column of src's kind. It repeats append's head: a shared one is a call
// more on Add's path, measurably slower.
func (r *Records) appendFrom(k KeyIndex, src values, i int, bytes int64) error {
	if r.vals == nil {
		r.vals = src.empty()
	}
	if !r.vals.addFrom(src, i) {
		return refused(r.vals, src.elem())
	}
	r.heads.Append(makeHead(k, bytes))
	r.bytes += bytes
	return nil
}

// decode appends a record of key k whose value is what d has left — tag
// and payload — and whose accounted size is bytes, the value read straight
// into the column, which the first value's tag picks. If d fails, or the
// value is not of the column's type, nothing is appended.
func (r *Records) decode(k KeyIndex, d *Dec, bytes int64) {
	var kd *kind
	if d.Rest() > 0 {
		kd = kindsByTag[d.b[d.at]]
	}
	if kd == nil {
		d.err = errors.New("spill: a value of no registered type")
		return
	}
	if r.vals == nil {
		r.vals = kd.column()
	}
	if !r.vals.decode(d) {
		d.err = refused(r.vals, kd.typ)
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
// its boxed form, after which the record is accounted anew with size. It
// returns how many bytes the record's accounted size grew by, and
// ErrMixedValues for an accumulator of another type than the column's.
func (r *Records) foldAt(i int, key string, v any, f *folder, size func(key string, v any) int64) (int64, error) {
	if r.vals.fold(i, v, f) {
		return 0, nil
	}
	if t := reflect.TypeOf(v); t != r.vals.elem() {
		return 0, refused(r.vals, t)
	}
	acc := f.boxed(r.vals.at(i), v)
	if !r.vals.set(i, acc) {
		return 0, refused(r.vals, reflect.TypeOf(acc))
	}
	h := r.heads.At(i)
	grew := size(key, acc) - h.bytes()
	r.bytes += grew
	*h = makeHead(h.key(), h.bytes()+grew)
	return grew, nil
}

// appendAt appends src's record i, column to column.
func (r *Records) appendAt(src *Records, i int) error {
	h := src.heads.At(i)
	return r.appendFrom(h.key(), src.vals, i, h.bytes())
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

// Frame appends record i to buf in AppendRecord's form, the value encoded
// out of its column.
func (r *Records) Frame(buf []byte, i int) []byte {
	h := r.heads.At(i)
	// uvarint(len) is one byte for a key of at most MaxKeyLen bytes.
	out := append(buf, h.len())
	out = binary.BigEndian.AppendUint64(out, h.prefix)[:len(out)+int(h.len())]
	at := len(out)
	return frameValue(r.vals.appendValue(out, i), at)
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
// Sizes[g]. A Groups shares nothing with the records it was cut from, and
// nothing a reader changes: the attempts of one reduce task and skip
// mode's probes read the one Groups in turn, each building key strings in
// an arena of its own. Its arrays and columns come from pools, and
// Release gives them back. What a reader takes out of it is its own, but
// for the tails AppendGroupValues hands out of a tailed column: those are
// views into the Groups, valid until Release.
type Groups struct {
	Sizes []int64
	keys  []KeyIndex // group g's key abbreviated, position 0
	// The pooled headers Sizes and keys came in.
	sizesBuf *[]int64
	keysBuf  *[]KeyIndex
	// A folded group is one accumulator in accs. Otherwise group g's
	// values are positions starts[g] to starts[g+1] of vals, a column of
	// the sources' kind, in record order.
	accs   values
	vals   values
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
// values in source then record order. No record is copied, only values.
// Every source must hold its values in a column of one kind, else Group
// fails with ErrMixedValues. With a fold, each group's values are folded
// in that order into one accumulator, in a column of that kind — in place
// in a []T when typed (see Config.TypedFold) offers the fold unboxed,
// through fold otherwise. Without one the values are gathered, in that
// order, into a column of that kind for AppendGroupValues and Values to
// hand out; a tailed column's tails move to the groups with the chunks
// they lie in, so sources of a tailed type may only be released after.
// The index and the group bounds are borrowed from pools and given back
// before Group returns.
func Group(srcs []Source, fold func(acc, v any) any, typed any) (*Groups, error) {
	if err := Groupable(len(srcs)); err != nil {
		return nil, err
	}
	var s sources
	n := 0
	for _, src := range srcs {
		if src.Hi > src.Lo {
			if len(s.srcs) > 0 && src.Recs.vals.elem() != s.srcs[0].Recs.vals.elem() {
				return nil, refused(s.srcs[0].Recs.vals, src.Recs.vals.elem())
			}
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
	g := &Groups{sizesBuf: groupSizesPool.get(groups), keysBuf: groupKeysPool.get(groups)}
	g.Sizes, g.keys = (*g.sizesBuf)[:groups], (*g.keysBuf)[:groups]
	clear(g.Sizes)
	for i := 0; i < groups; i++ {
		first := idx[starts[i]]
		g.keys[i] = KeyIndex{Prefix: first.Prefix, Len: first.Len}
		for _, ix := range idx[starts[i]:starts[i+1]] {
			r, j := s.at(ix)
			g.Sizes[i] += r.heads.At(j).bytes()
		}
	}
	var err error
	switch {
	case n == 0:
	case fold != nil:
		g.accs, err = s.srcs[0].Recs.vals.foldGroups(&s, idx, starts, &folder{boxed: fold, typed: typed})
	default:
		g.starts = slices.Clone(starts)
		g.vals = s.srcs[0].Recs.vals.gather(&s, idx)
	}
	if err != nil {
		g.Release()
		return nil, err
	}
	return g, nil
}

// startsPool holds Group's group bounds, one per record at most.
var startsPool slicePool[int32]

// groupSizesPool and groupKeysPool hold the Sizes and keys of Groups given
// back by Release: one reduce task's are about as long as the next one's.
var (
	groupSizesPool slicePool[int64]
	groupKeysPool  slicePool[KeyIndex]
)

// Release gives the groups' arrays back to the pools the next Group takes
// them from: the keys, Sizes, a folded group's accumulator column and an
// unfolded group's gathered values. Only their owner may call it, once,
// when nothing reads the groups again — not a key, not Sizes, not a
// GroupAcc, and not a tail AppendGroupValues handed out, which is a view
// into the gathered column whose chunks the next Group reuses; g is empty
// after. A value Acc or Values returned is the reader's own and outlives
// it.
func (g *Groups) Release() {
	groupSizesPool.put(g.sizesBuf)
	groupKeysPool.put(g.keysBuf)
	if g.accs != nil {
		g.accs.release()
	}
	if g.vals != nil {
		g.vals.release()
	}
	*g = Groups{}
}

// Len returns the number of groups.
func (g *Groups) Len() int { return len(g.keys) }

// Abbrev returns group i's key abbreviated, with position 0: all of it.
func (g *Groups) Abbrev(i int) KeyIndex { return g.keys[i] }

// Key returns group i's key, cut out of a.
func (g *Groups) Key(i int, a *KeyArena) string { return a.Short(g.keys[i]) }

// Acc returns folded group i's accumulator.
func (g *Groups) Acc(i int) any { return g.accs.at(i) }

// GroupAcc returns folded group i's accumulator unboxed. The groups must
// have been folded in a []T column, else it panics, as the type assertion
// a reader of Acc makes would.
func GroupAcc[T any](g *Groups, i int) T { return *g.accs.(*column[T]).vals.At(i) }

// Values returns unfolded group i's values boxed, for a reader that takes
// them as any: a slice of its own, each value with its own tail.
func (g *Groups) Values(i int) []any {
	lo, hi := int(g.starts[i]), int(g.starts[i+1])
	out := make([]any, 0, hi-lo)
	for j := lo; j < hi; j++ {
		out = append(out, g.vals.at(j))
	}
	return out
}

// AppendGroupValues appends unfolded group i's values, as Ts in record
// order, to dst and returns the extended slice: copied out of a []T
// column, out of a tailed column (RegisterTailed) with each tail a view
// into the column, and otherwise unboxed — where a value is not a T it
// panics, as the type assertion a reader of Values makes would. A view is
// valid until the groups are released, and must only be read: every
// attempt of a reduce task reads the one Groups.
func AppendGroupValues[T any](dst []T, g *Groups, i int) []T {
	lo, hi := int(g.starts[i]), int(g.starts[i+1])
	switch c := g.vals.(type) {
	case *column[T]:
		for j := lo; j < hi; j++ {
			dst = append(dst, *c.vals.At(j))
		}
	case tailedOf[T]:
		dst = c.appendTo(dst, lo, hi)
	default: // a column of another type
		for j := lo; j < hi; j++ {
			dst = append(dst, c.at(j).(T))
		}
	}
	return dst
}
