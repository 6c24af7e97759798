package spill

import "reflect"

// values is the value column of a Records: a *column[T] for one registered
// pointer-free T, or a *column[any].
type values interface {
	// encodable reports whether v, about to be added, has a codec.
	encodable(v any) bool
	// encodableAt is encodable of value i, and only reads the column.
	encodableAt(i int) bool
	// add appends v; false when v is not of the column's type.
	add(v any) bool
	// addFrom appends src's value i; false when src is another kind of column.
	addFrom(src values, i int) bool
	// addAll appends src's values; false when src is another kind of column.
	addAll(src values) bool
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
	// foldGroups returns a column holding, for each group g, the values at
	// idx[starts[g]:starts[g+1]] folded in that order — unboxed where f can.
	foldGroups(idx []KeyIndex, starts []int32, f *folder) values
	// appendValue appends value i as the run codec frames it.
	appendValue(buf []byte, i int) ([]byte, error)
	reset()
	trim()
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
	// T's codec, nil when T is any, whose values each have their own; and a
	// kind: T's, or in the []any column that of the last registered type it
	// was asked about. A partition's values are nearly always of one type.
	codec *Codec[T]
	kind  *kind

	// The owning buffer's fold, looked up on the first fold into the column.
	unboxed  func(acc *T, v T)
	resolved bool

	// The list's chunk table and first chunk, allocated with the column: a
	// job has map tasks × reduce tasks of these, most of a few values.
	table [4][]T
	first [firstChunk]T
}

func newColumn[T any](k *kind, codec *Codec[T]) *column[T] {
	c := &column[T]{kind: k, codec: codec}
	c.vals.seed(c.table[:], &c.first)
	return c
}

func newAnyColumn() *column[any] { return newColumn[any](nil, nil) }

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

// kindOf returns the kind of v's type, at the cost of one comparison while
// the values keep coming in one registered type. Only the []any column
// remembers another: a typed column encodes under the kind it was made with.
func (c *column[T]) kindOf(v any) *kind {
	t := reflect.TypeOf(v)
	if c.kind != nil && c.kind.typ == t {
		return c.kind
	}
	k := kindsByType[t]
	if k != nil && c.codec == nil {
		c.kind = k
	}
	return k
}

func (c *column[T]) encodable(v any) bool {
	if c.kindOf(v) != nil {
		return true
	}
	_, bare := bareTag(v)
	return bare
}

func (c *column[T]) encodableAt(i int) bool {
	if c.codec != nil {
		return true
	}
	v := c.at(i)
	_, bare := bareTag(v)
	return bare || kindsByType[reflect.TypeOf(v)] != nil
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

func (c *column[T]) addAll(src values) bool {
	s, ok := src.(*column[T])
	if ok {
		c.vals.AppendList(&s.vals)
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

func (c *column[T]) empty() values { return newColumn(c.kind, c.codec) }

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
	if !c.resolved {
		c.unboxed, c.resolved = unboxedFold[T](f), true
	}
	if c.unboxed != nil {
		c.unboxed(c.vals.At(i), x)
	}
	return c.unboxed != nil
}

func (c *column[T]) foldGroups(idx []KeyIndex, starts []int32, f *folder) values {
	if fold := unboxedFold[T](f); fold != nil {
		out := newColumn(c.kind, c.codec)
		for g := 0; g+1 < len(starts); g++ {
			out.vals.Append(*c.vals.At(int(idx[starts[g]].Pos)))
			acc := out.vals.At(g)
			for _, ix := range idx[starts[g]+1 : starts[g+1]] {
				fold(acc, *c.vals.At(int(ix.Pos)))
			}
		}
		return out
	}
	out := newAnyColumn()
	for g := 0; g+1 < len(starts); g++ {
		acc := c.at(int(idx[starts[g]].Pos))
		for _, ix := range idx[starts[g]+1 : starts[g+1]] {
			acc = f.boxed(acc, c.at(int(ix.Pos)))
		}
		out.vals.Append(acc)
	}
	return out
}

func (c *column[T]) appendValue(buf []byte, i int) ([]byte, error) {
	if c.codec != nil {
		return c.codec.Append(append(buf, c.kind.tag), *c.vals.At(i)), nil
	}
	v := c.at(i)
	return appendKind(buf, v, c.kindOf(v))
}

func (c *column[T]) reset() { c.vals.Reset() }
func (c *column[T]) trim()  { c.vals.Trim() }
