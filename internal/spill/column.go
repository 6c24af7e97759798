package spill

import (
	"errors"
	"fmt"
	"reflect"
)

// values is the value column of a Records: a *column[T] for a type
// registered with Register, or a *tailed column for one registered with
// RegisterTailed. A column holds values of its one type only.
type values interface {
	// elem returns the type of the column's values.
	elem() reflect.Type
	// add appends v; false when v is not of the column's type.
	add(v any) bool
	// addFrom appends src's value i; false when src is another kind of column.
	addFrom(src values, i int) bool
	// at returns value i boxed.
	at(i int) any
	// set replaces value i; false when v is not of the column's type.
	set(i int, v any) bool
	// empty returns a new column of the same kind.
	empty() values
	// fold adds v into value i through f's unboxed form; false when f has
	// none for this column or v is not of its type.
	fold(i int, v any, f *folder) bool
	// foldFrom is fold of src's value j; false also for another kind of src.
	foldFrom(i int, src values, j int, f *folder) bool
	// foldGroups returns a column of this kind holding, for each group g,
	// the values of s — every source a column of this kind — at
	// idx[starts[g]:starts[g+1]] folded in that order, unboxed where f can.
	foldGroups(s *sources, idx []KeyIndex, starts []int32, f *folder) (values, error)
	// gather is foldGroups with no fold: the values of s at idx, in that
	// order. A tailed column takes its sources' tails rather than copying
	// them, leaving the sources to be released only.
	gather(s *sources, idx []KeyIndex) values
	// appendValue appends value i as the run codec frames it.
	appendValue(buf []byte, i int) []byte
	// decode appends the value d holds, tag and payload, read straight into
	// the column; false, with nothing read, when the tag is another type's.
	// d's error says whether it was read.
	decode(d *Dec) bool
	reset()
	trim()
	release()
}

// ErrMixedValues is returned, wrapped, where a value joins a partition —
// or a reduce task groups partitions — holding values of another type: a
// partition holds values of one type, in that type's column.
var ErrMixedValues = errors.New("spill: values of more than one type in one partition")

// refused is why column c does not take a value of type got: ErrNoCodec
// when got is not registered, ErrMixedValues when it is another type.
func refused(c values, got reflect.Type) error {
	if kindsByType[got] == nil {
		return fmt.Errorf("%w for %v", ErrNoCodec, got)
	}
	return fmt.Errorf("%w: a %v among %v values", ErrMixedValues, got, c.elem())
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

// column holds values of one registered type in a List.
type column[T any] struct {
	vals List[T]
	// The owning buffer's fold, looked up on the first fold into the column.
	unboxed  func(acc *T, v T)
	resolved bool

	tag   byte
	codec *Codec[T]

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

func (c *column[T]) elem() reflect.Type { return reflect.TypeFor[T]() }

func (c *column[T]) add(v any) bool {
	x, ok := v.(T)
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
	x, ok := v.(T)
	if ok {
		*c.vals.At(i) = x
	}
	return ok
}

func (c *column[T]) empty() values { return newColumn(c.tag, c.codec) }

func (c *column[T]) fold(i int, v any, f *folder) bool {
	x, ok := v.(T)
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

func (c *column[T]) foldGroups(s *sources, idx []KeyIndex, starts []int32, f *folder) (values, error) {
	fold := unboxedFold[T](f)
	if fold == nil {
		return foldBoxed(c, s, idx, starts, f)
	}
	cols := sourceColumns[*column[T]](s)
	out := newColumn(c.tag, c.codec)
	at := func(k KeyIndex) T { return *cols[k.Src].vals.At(int(k.Pos + s.off[k.Src])) }
	for g := 0; g+1 < len(starts); g++ {
		out.vals.Append(at(idx[starts[g]]))
		acc := out.vals.At(g)
		for _, ix := range idx[starts[g]+1 : starts[g+1]] {
			fold(acc, at(ix))
		}
	}
	return out, nil
}

func (c *column[T]) gather(s *sources, idx []KeyIndex) values {
	cols := sourceColumns[*column[T]](s)
	out := newColumn(c.tag, c.codec)
	for _, ix := range idx {
		out.vals.Append(*cols[ix.Src].vals.At(int(ix.Pos + s.off[ix.Src])))
	}
	return out
}

// sourceColumns returns the columns of s's sources, which Group has found
// to be of one kind, C.
func sourceColumns[C values](s *sources) []C {
	cols := make([]C, len(s.srcs))
	for i, src := range s.srcs {
		cols[i] = src.Recs.vals.(C)
	}
	return cols
}

// foldBoxed is foldGroups through f's boxed form, each value boxed as it
// is read, into a column of c's kind: for a fold with no unboxed form.
// An accumulator of another type than c's values is ErrMixedValues.
func foldBoxed(c values, s *sources, idx []KeyIndex, starts []int32, f *folder) (values, error) {
	out := c.empty()
	for g := 0; g+1 < len(starts); g++ {
		acc := s.value(idx[starts[g]])
		for _, ix := range idx[starts[g]+1 : starts[g+1]] {
			acc = f.boxed(acc, s.value(ix))
		}
		if !out.add(acc) {
			out.release()
			return nil, refused(out, reflect.TypeOf(acc))
		}
	}
	return out, nil
}

func (c *column[T]) appendValue(buf []byte, i int) []byte {
	return c.codec.Append(append(buf, c.tag), *c.vals.At(i))
}

func (c *column[T]) decode(d *Dec) bool {
	if d.b[d.at] != c.tag {
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
