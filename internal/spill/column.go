package spill

import "reflect"

// values is the value column of a Records: a *column[T] for one registered
// pointer-free T, a *tailed column for a type registered with
// RegisterTailed, or a *column[any].
type values interface {
	// add appends v; false when v is not of the column's type.
	add(v any) bool
	// addFrom appends src's value i; false when src is another kind of column.
	addFrom(src values, i int) bool
	// at returns value i, boxing it when the column is typed.
	at(i int) any
	// set replaces value i; false when v is not of the column's type.
	set(i int, v any) bool
	// boxed returns the column as a column[any] of the same values.
	boxed() values
	// empty returns a new column of the same kind.
	empty() values
	// fold adds v into value i through f's unboxed form; false when f has
	// none for this column or v is not of its type.
	fold(i int, v any, f *folder) bool
	// foldFrom is fold of src's value j; false also for another kind of src.
	foldFrom(i int, src values, j int, f *folder) bool
	// foldGroups returns a column holding, for each group g, the values of
	// s at idx[starts[g]:starts[g+1]] folded in that order — unboxed where
	// every source holds this column's type and f has an unboxed form.
	foldGroups(s *sources, idx []KeyIndex, starts []int32, f *folder) values
	// gather returns a new column of this kind holding the values of s at
	// idx, in that order; nil when some source holds another kind of
	// column, or this one holds values of any type. A tailed column takes
	// its sources' tails rather than copying them, leaving the sources to
	// be released only.
	gather(s *sources, idx []KeyIndex) values
	// appendValue appends value i as the run codec frames it.
	appendValue(buf []byte, i int) ([]byte, error)
	// decode appends the value d holds, tag and payload, read straight into
	// the column when it is of the column's registered type; false, with
	// nothing read, when it is not. d's error says whether it was read.
	decode(d *Dec) bool
	reset()
	trim()
	release()
}

// folder is a fold in both its forms: the boxed one every fold has, and
// where to look for the unboxed one (Config.TypedFold).
type folder struct {
	boxed func(acc, v any) any
	typed any
}

// unboxedFold returns f's fold over a []T column, or nil when it has none:
// the FoldTyped method of a fold written for T, and for a fold that keeps
// its first value whatever follows — whatever T is — nothing at all.
func unboxedFold[T any](f *folder) func(acc *T, v T) {
	switch t := f.typed.(type) {
	case interface{ FoldTyped(acc *T, v T) }:
		return t.FoldTyped
	case interface{ KeepsFirst() }:
		return func(*T, T) {}
	}
	return nil
}

// column holds values of one type in a List. With T = any it is the
// fallback that holds anything, each value boxed as it was emitted.
type column[T any] struct {
	vals List[T]
	// The owning buffer's fold, looked up on the first fold into the column.
	unboxed  func(acc *T, v T)
	resolved bool

	// T's tag and codec, 0 and nil when T is any, whose values each have
	// their own; and the kinds of the values encoded, found one type at a
	// time: a partition's values are nearly always of one type.
	tag   byte
	codec *Codec[T]
	kinds Sizer

	// The list's chunk table and first chunk, allocated with the column: a
	// job has map tasks × reduce tasks of these, most of a few values.
	table [4][]T
	first [firstChunk]T
}

func newColumn[T any](tag byte, codec *Codec[T]) *column[T] {
	c := &column[T]{tag: tag, codec: codec}
	c.vals.seed(c.table[:], &c.first)
	return c
}

func newAnyColumn() *column[any] { return newColumn[any](0, nil) }

// columnFor returns an empty column for a partition whose first value is v.
func columnFor(v any) values {
	if k := kindsByType[reflect.TypeOf(v)]; k != nil && k.column != nil {
		return k.column()
	}
	return newAnyColumn()
}

func (c *column[T]) unbox(v any) (T, bool) {
	x, ok := v.(T)
	// A nil any fails the assertion to any itself, and is its zero value.
	return x, ok || c.codec == nil
}

func (c *column[T]) add(v any) bool {
	x, ok := c.unbox(v)
	if ok {
		c.vals.Append(x)
	}
	return ok
}

func (c *column[T]) addFrom(src values, i int) bool {
	s, ok := src.(*column[T])
	if ok {
		c.vals.Append(*s.vals.At(i))
	}
	return ok
}

func (c *column[T]) at(i int) any { return *c.vals.At(i) }

func (c *column[T]) set(i int, v any) bool {
	x, ok := c.unbox(v)
	if ok {
		*c.vals.At(i) = x
	}
	return ok
}

func (c *column[T]) boxed() values {
	if c.codec == nil {
		return c
	}
	out := newAnyColumn()
	for i := 0; i < c.vals.Len(); i++ {
		out.vals.Append(*c.vals.At(i))
	}
	return out
}

func (c *column[T]) empty() values { return newColumn(c.tag, c.codec) }

func (c *column[T]) fold(i int, v any, f *folder) bool {
	x, ok := c.unbox(v)
	return ok && c.foldValue(i, x, f)
}

func (c *column[T]) foldFrom(i int, src values, j int, f *folder) bool {
	s, ok := src.(*column[T])
	return ok && c.foldValue(i, *s.vals.At(j), f)
}

// foldValue adds x into value i through f's unboxed form, if it has one.
func (c *column[T]) foldValue(i int, x T, f *folder) bool {
	if c.foldsUnboxed(f) {
		c.unboxed(c.vals.At(i), x)
		return true
	}
	return false
}

// foldsUnboxed reports whether f has an unboxed form for the column.
func (c *column[T]) foldsUnboxed(f *folder) bool {
	if !c.resolved {
		c.unboxed, c.resolved = unboxedFold[T](f), true
	}
	return c.unboxed != nil
}

func (c *column[T]) foldGroups(s *sources, idx []KeyIndex, starts []int32, f *folder) values {
	fold := unboxedFold[T](f)
	if fold == nil {
		return foldBoxed(s, idx, starts, f)
	}
	cols := make([]*column[T], len(s.srcs))
	for i, src := range s.srcs {
		col, ok := src.Recs.vals.(*column[T])
		if !ok {
			return foldBoxed(s, idx, starts, f)
		}
		cols[i] = col
	}
	out := newColumn(c.tag, c.codec)
	at := func(k KeyIndex) T { return *cols[k.Src].vals.At(int(k.Pos + s.off[k.Src])) }
	for g := 0; g+1 < len(starts); g++ {
		out.vals.Append(at(idx[starts[g]]))
		acc := out.vals.At(g)
		for _, ix := range idx[starts[g]+1 : starts[g+1]] {
			fold(acc, at(ix))
		}
	}
	return out
}

func (c *column[T]) gather(s *sources, idx []KeyIndex) values {
	if c.codec == nil {
		return nil
	}
	cols := make([]*column[T], len(s.srcs))
	for i, src := range s.srcs {
		col, ok := src.Recs.vals.(*column[T])
		if !ok {
			return nil
		}
		cols[i] = col
	}
	out := newColumn(c.tag, c.codec)
	for _, ix := range idx {
		out.vals.Append(*cols[ix.Src].vals.At(int(ix.Pos + s.off[ix.Src])))
	}
	return out
}

// foldBoxed is foldGroups through f's boxed form, each value boxed as it
// is read: for sources whose columns differ, or a fold with no unboxed form.
func foldBoxed(s *sources, idx []KeyIndex, starts []int32, f *folder) values {
	out := newAnyColumn()
	for g := 0; g+1 < len(starts); g++ {
		acc := s.value(idx[starts[g]])
		for _, ix := range idx[starts[g]+1 : starts[g+1]] {
			acc = f.boxed(acc, s.value(ix))
		}
		out.vals.Append(acc)
	}
	return out
}

func (c *column[T]) appendValue(buf []byte, i int) ([]byte, error) {
	if c.codec != nil {
		return c.codec.Append(append(buf, c.tag), *c.vals.At(i)), nil
	}
	v := c.at(i)
	return appendKind(buf, v, c.kinds.kindOf(v))
}

func (c *column[T]) decode(d *Dec) bool {
	if c.codec == nil || d.Rest() == 0 || d.b[d.at] != c.tag {
		return false
	}
	d.at++
	x := c.codec.Read(d)
	if d.consumed(); d.err == nil {
		c.vals.Append(x)
	}
	return true
}

func (c *column[T]) reset()   { c.vals.Reset() }
func (c *column[T]) trim()    { c.vals.Trim() }
func (c *column[T]) release() { c.vals.release() }
