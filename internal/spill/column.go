package spill

import (
	"fmt"
	"reflect"
)

// values is the value column of a Records: a *column[T] for one registered
// pointer-free T, or a *column[any].
type values interface {
	// add appends v; false when v is not of the column's type.
	add(v any) bool
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
	any  bool // T is any

	// The owning buffer's fold, looked up on the first fold into the column.
	unboxed  func(acc *T, v T)
	resolved bool

	// The list's chunk table and first chunk, allocated with the column: a
	// job has map tasks × reduce tasks of these, most of a few values.
	table [4][]T
	first [firstChunk]T
}

func newTypedColumn[T any](boxed bool) *column[T] {
	c := &column[T]{any: boxed}
	c.vals.seed(c.table[:], &c.first)
	return c
}

func (c *column[T]) unbox(v any) (T, bool) {
	x, ok := v.(T)
	// A nil any fails the assertion to any itself, and is its zero value.
	return x, ok || c.any
}

func (c *column[T]) add(v any) bool {
	x, ok := c.unbox(v)
	if ok {
		c.vals.Append(x)
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
	if c.any {
		return c
	}
	out := newTypedColumn[any](true)
	for i := 0; i < c.vals.Len(); i++ {
		out.vals.Append(*c.vals.At(i))
	}
	return out
}

func (c *column[T]) empty() values { return newTypedColumn[T](c.any) }

func (c *column[T]) fold(i int, v any, f *folder) bool {
	if !c.resolved {
		c.unboxed, c.resolved = unboxedFold[T](f), true
	}
	if c.unboxed == nil {
		return false
	}
	x, ok := c.unbox(v)
	if ok {
		c.unboxed(c.vals.At(i), x)
	}
	return ok
}

func (c *column[T]) foldGroups(idx []KeyIndex, starts []int32, f *folder) values {
	if fold := unboxedFold[T](f); fold != nil {
		out := newTypedColumn[T](c.any)
		for g := 0; g+1 < len(starts); g++ {
			out.vals.Append(*c.vals.At(int(idx[starts[g]].Pos)))
			acc := out.vals.At(g)
			for _, ix := range idx[starts[g]+1 : starts[g+1]] {
				fold(acc, *c.vals.At(int(ix.Pos)))
			}
		}
		return out
	}
	out := newTypedColumn[any](true)
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
	// A builtin kind is encoded out of a box that never leaves the stack.
	if out, ok := appendBuiltin(buf, any(*c.vals.At(i))); ok {
		return out, nil
	}
	return appendCustom(buf, c.at(i))
}

func (c *column[T]) reset() { c.vals.Reset() }
func (c *column[T]) trim()  { c.vals.Trim() }

// columnsByType makes the empty typed column of each registered type.
var columnsByType = map[reflect.Type]func() values{}

// RegisterColumn lets the shuffle hold values of type T unboxed: a
// partition whose values are all of type T keeps them in a []T, which the
// garbage collector never scans, instead of one boxed value each. T must be
// pointer-free — no pointer, string, slice, map, interface, channel or
// function anywhere in it — or the registration panics; values of every
// other type, and of mixed types, are held boxed. Must be called from
// init(): the registry is read without locking once jobs run.
func RegisterColumn[T any]() {
	t := reflect.TypeFor[T]()
	if !pointerFree(t) {
		panic(fmt.Sprintf("spill: RegisterColumn: %v holds pointers", t))
	}
	if _, dup := columnsByType[t]; dup {
		panic(fmt.Sprintf("spill: column of %v registered twice", t))
	}
	columnsByType[t] = func() values { return newTypedColumn[T](false) }
}

func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// The fixed-size builtin kinds of the codec.
func init() {
	RegisterColumn[bool]()
	RegisterColumn[int]()
	RegisterColumn[int8]()
	RegisterColumn[int16]()
	RegisterColumn[int32]()
	RegisterColumn[int64]()
	RegisterColumn[uint]()
	RegisterColumn[uint8]()
	RegisterColumn[uint16]()
	RegisterColumn[uint32]()
	RegisterColumn[uint64]()
	RegisterColumn[float32]()
	RegisterColumn[float64]()
}

// newColumn returns an empty column for a partition whose first value is v.
func newColumn(v any) values {
	if v != nil {
		if mk := columnsByType[reflect.TypeOf(v)]; mk != nil {
			return mk()
		}
	}
	return newTypedColumn[any](true)
}
