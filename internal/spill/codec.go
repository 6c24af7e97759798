package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
)

// The run format stores each value as a one-byte type tag (tags.go) followed
// by a tag-specific payload, so decoding restores the exact concrete Go type
// that was buffered — reducers type-switch on shuffle values, so "mostly
// the same type" is not good enough. This file is the one place that knows
// how a Go type crosses the shuffle or the disk, and what it is accounted
// at: each type registers its tag and codec once, with Register, and every
// path — a typed column encoding its values unboxed, the []any column,
// AppendEncoded, AppendRecord, their decoders and Sizer — goes through that
// one table.

// Codec is how values of type T are written after their tag and read back.
type Codec[T any] struct {
	// Append appends v's payload — no tag — to buf and returns the extended
	// slice.
	Append func(buf []byte, v T) []byte
	// Read consumes from d the payload Append wrote, all of it, and keeps
	// none of d's bytes. It reports nothing itself: the registry checks d's
	// error, and that nothing is left over, when it returns.
	Read func(d *Dec) T
	// Size returns v's accounted bytes: what shuffle accounting, and through
	// it the cluster cost model, charges for the value — not the length
	// Append writes. A pure function of v, so that a value and its decoded
	// copy are accounted alike.
	Size func(v T) int
}

// kind is one registered type as the untyped paths see it.
type kind struct {
	tag byte
	typ reflect.Type
	// append appends the tag and payload of a boxed value of the type.
	append func(buf []byte, v any) []byte
	read   func(d *Dec) any
	size   func(v any) int
	// column makes the type's empty column — a []T, or a tailed column
	// (RegisterTailed); nil for any other type that holds a pointer, whose
	// values are held boxed.
	column func() values
}

var (
	kindsByType = map[reflect.Type]*kind{}
	kindsByTag  [256]*kind
)

// Register installs T's tag and codec, and — when T is pointer-free: no
// pointer, string, slice, map, interface, channel or function anywhere in
// it — lets the shuffle hold a partition's values of type T unboxed in a
// []T, which the garbage collector never scans, in chunks a pool recycles
// (List); values of every other type, and of mixed types, are held boxed.
// The tag is a constant of tags.go; a tag or type registered twice panics,
// so a collision surfaces at program start. Must be called from init():
// the registry is read without locking once jobs run.
func Register[T any](tag byte, c Codec[T]) {
	k := register(tag, c)
	if pointerFree(k.typ) {
		k.column = func() values { return newColumn(tag, &c) }
		chunkPools[k.typ] = new(chunkPool[T])
	}
}

// register installs T's tag and codec for the untyped paths, with no
// column: Register's and RegisterTailed's common part.
func register[T any](tag byte, c Codec[T]) *kind {
	t := reflect.TypeFor[T]()
	switch {
	case tag <= tagTrue:
		panic(fmt.Sprintf("spill: tag %d is a value of its own", tag))
	case c.Append == nil || c.Read == nil || c.Size == nil:
		panic(fmt.Sprintf("spill: Register of %v needs Append, Read and Size", t))
	case kindsByTag[tag] != nil:
		panic(fmt.Sprintf("spill: tag %d registered twice", tag))
	case kindsByType[t] != nil:
		panic(fmt.Sprintf("spill: type %v registered twice", t))
	}
	k := &kind{
		tag:    tag,
		typ:    t,
		append: func(buf []byte, v any) []byte { return c.Append(append(buf, tag), v.(T)) },
		read:   func(d *Dec) any { return c.Read(d) },
		size:   func(v any) int { return c.Size(v.(T)) },
	}
	kindsByTag[tag], kindsByType[t] = k, k
	return k
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

func varint[T int | int8 | int16 | int32 | int64](width int) Codec[T] {
	return Codec[T]{
		Append: func(buf []byte, v T) []byte { return binary.AppendVarint(buf, int64(v)) },
		Read:   func(d *Dec) T { return T(d.Varint()) },
		Size:   func(T) int { return width },
	}
}

func uvarint[T uint | uint8 | uint16 | uint32 | uint64](width int) Codec[T] {
	return Codec[T]{
		Append: func(buf []byte, v T) []byte { return binary.AppendUvarint(buf, uint64(v)) },
		Read:   func(d *Dec) T { return T(d.Uvarint()) },
		Size:   func(T) int { return width },
	}
}

// list is the codec of a []T: a uvarint count, then each element as e
// writes it. It is accounted at the sum of its elements' sizes.
func list[T any](e Codec[T]) Codec[[]T] {
	return Codec[[]T]{
		Append: func(buf []byte, xs []T) []byte {
			buf = binary.AppendUvarint(buf, uint64(len(xs)))
			for _, x := range xs {
				buf = e.Append(buf, x)
			}
			return buf
		},
		Read: func(d *Dec) []T {
			n := d.Uvarint()
			xs := make([]T, 0, min(n, 1<<16))
			for i := uint64(0); i < n && d.err == nil; i++ {
				xs = append(xs, e.Read(d))
			}
			return xs
		},
		Size: func(xs []T) int {
			n := 0
			for _, x := range xs {
				n += e.Size(x)
			}
			return n
		},
	}
}

// The builtin kinds. A fixed-size kind is accounted at its width — an int or
// a uint at 8 on every platform; a string or a []byte is its payload, whole,
// and accounted at its length; a []uint32 or a []int32 at four bytes a word.
func init() {
	Register(tagInt, varint[int](8))
	Register(tagInt8, varint[int8](1))
	Register(tagInt16, varint[int16](2))
	Register(tagInt32, varint[int32](4))
	Register(tagInt64, varint[int64](8))
	Register(tagUint, uvarint[uint](8))
	Register(tagUint8, uvarint[uint8](1))
	Register(tagUint16, uvarint[uint16](2))
	Register(tagUint32, uvarint[uint32](4))
	Register(tagUint64, uvarint[uint64](8))
	Register(tagFloat32, Codec[float32]{
		Append: func(buf []byte, v float32) []byte {
			return binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		},
		Read: func(d *Dec) float32 { return math.Float32frombits(d.U32()) },
		Size: func(float32) int { return 4 },
	})
	Register(tagFloat64, Codec[float64]{
		Append: func(buf []byte, v float64) []byte {
			return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		},
		Read: func(d *Dec) float64 { return math.Float64frombits(d.U64()) },
		Size: func(float64) int { return 8 },
	})
	Register(tagString, Codec[string]{
		Append: func(buf []byte, v string) []byte { return append(buf, v...) },
		Read:   func(d *Dec) string { return string(d.tail()) },
		Size:   func(v string) int { return len(v) },
	})
	Register(tagBytes, Codec[[]byte]{
		Append: func(buf, v []byte) []byte { return append(buf, v...) },
		Read:   func(d *Dec) []byte { return append([]byte(nil), d.tail()...) },
		Size:   func(v []byte) int { return len(v) },
	})
	Register(tagU32Slice, Codec[[]uint32]{Append: AppendU32s, Read: (*Dec).U32s, Size: func(xs []uint32) int { return 4 * len(xs) }})
	Register(tagI32Slice, Codec[[]int32]{Append: AppendI32s, Read: (*Dec).I32s, Size: func(xs []int32) int { return 4 * len(xs) }})
	Register(tagIntSlice, list(varint[int](8)))
	// A []string is accounted at each string's length and four bytes more.
	Register(tagStringSlice, list(Codec[string]{
		Append: func(buf []byte, v string) []byte {
			return append(binary.AppendUvarint(buf, uint64(len(v))), v...)
		},
		Read: (*Dec).String,
		Size: func(v string) int { return len(v) + 4 },
	}))
}

// Sizer returns values' accounted sizes: a registered type's by its
// Codec.Size and, for the rest, nil 0, a bool 1 and a value of an
// unregistered type a flat 16, so that accounting never silently reports
// nothing. It remembers the kind it found last, so values of one type in a
// row cost no registry lookup. The zero value is ready for use, and safe
// for concurrent use.
type Sizer struct{ last atomic.Pointer[kind] }

// Size returns v's accounted bytes.
func (s *Sizer) Size(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	}
	if k := s.kindOf(v); k != nil {
		return k.size(v)
	}
	return 16
}

// kindOf returns the kind of v's type, nil for none, at the cost of one
// comparison while the values keep coming in the type it found last.
func (s *Sizer) kindOf(v any) *kind {
	t := reflect.TypeOf(v)
	if k := s.last.Load(); k != nil && k.typ == t {
		return k
	}
	k := kindsByType[t]
	if k != nil {
		s.last.Store(k)
	}
	return k
}

// bareTag returns the tag that is all of v's encoding, for the three values
// that have one.
func bareTag(v any) (tag byte, ok bool) {
	switch v {
	case nil:
		return tagNil, true
	case false:
		return tagFalse, true
	case true:
		return tagTrue, true
	}
	return 0, false
}

// ErrNoCodec is returned, wrapped, wherever a value must cross the disk —
// a spill run or a checkpoint — and its type has no registered codec.
var ErrNoCodec = errors.New("spill: no codec registered")

// appendKind appends tag + payload for v, whose kind the caller has looked
// up: nil for a value that is its own tag, or has no codec.
func appendKind(buf []byte, v any, k *kind) ([]byte, error) {
	if k != nil {
		return k.append(buf, v), nil
	}
	if tag, ok := bareTag(v); ok {
		return append(buf, tag), nil
	}
	return nil, fmt.Errorf("%w for %T", ErrNoCodec, v)
}

// AppendEncoded appends v's tag + payload frame to buf — the exact bytes a
// spill run stores for the value. Exported for the checkpoint subsystem,
// which persists stage outputs (and fingerprints stage inputs) in the run
// codec so replayed values decode to the same concrete types the shuffle
// restores.
func AppendEncoded(buf []byte, v any) ([]byte, error) {
	return appendKind(buf, v, kindsByType[reflect.TypeOf(v)])
}

// DecodeEncoded reconstructs a value written by AppendEncoded. It never
// retains b.
func DecodeEncoded(b []byte) (any, error) {
	d := dec(b)
	v := d.value()
	return v, d.err
}

// AppendRecord appends one shuffle record in the wire form every persisted
// record shares — spill files and checkpoint files:
//
//	uvarint(len(key)) key uvarint(len(tag+payload)) tag payload
//
// The value is encoded in place and its length prefix slid in before it,
// so no per-record scratch is allocated. On error buf is returned as given.
func AppendRecord(buf []byte, key string, v any) ([]byte, error) {
	out := binary.AppendUvarint(buf, uint64(len(key)))
	out = append(out, key...)
	at := len(out)
	out, err := AppendEncoded(out, v)
	if err != nil {
		return buf, err
	}
	return frameValue(out, at), nil
}

// frameValue slides the length of the encoded value out[at:] in before it.
func frameValue(out []byte, at int) []byte {
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(out)-at))
	out = append(out, prefix[:n]...)
	copy(out[at+n:], out[at:])
	copy(out[at:], prefix[:n])
	return out
}

// ---- Helpers for custom codecs ----

// AppendU32s appends a uvarint count followed by fixed little-endian words.
func AppendU32s(buf []byte, xs []uint32) []byte { return appendWords(buf, xs) }

// AppendI32s appends a uvarint count followed by fixed little-endian words.
func AppendI32s(buf []byte, xs []int32) []byte { return appendWords(buf, xs) }

func appendWords[T uint32 | int32](buf []byte, xs []T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// Dec is a cursor over a custom codec payload written with the Append*
// helpers and encoding/binary primitives. The first malformed read sticks
// in Err; subsequent reads return zero values.
type Dec struct {
	// b[at:end] is unread. Reading moves at, and reading a record's value
	// end, and b is left alone: a Dec handed to a codec's Read lives on the
	// heap, where moving b itself would cost a write barrier per read.
	b       []byte
	at, end int
	err     error
	// lend makes U32s return words of its own scratch, reused by the next
	// call, rather than a slice of the caller's: a tailed column's decode
	// copies the tail into the column at once.
	lend    bool
	scratch []uint32
}

// NewDec wraps a payload.
func NewDec(b []byte) *Dec {
	d := dec(b)
	return &d
}

func dec(b []byte) Dec { return Dec{b: b, end: len(b)} }

// reset points d at b, keeping its scratch.
func (d *Dec) reset(b []byte) { d.b, d.at, d.end, d.err = b, 0, len(b), nil }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the number of unconsumed bytes — strict decoders use it to
// reject payloads with trailing garbage.
func (d *Dec) Rest() int { return d.end - d.at }

// errTruncated is the Dec error for a payload that ends mid-value; a run
// cursor takes it as the cue to read further into its segment.
var errTruncated = errors.New("spill: truncated payload")

func (d *Dec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

// Byte consumes one byte.
func (d *Dec) Byte() byte {
	if d.err != nil || d.Rest() < 1 {
		d.fail()
		return 0
	}
	x := d.b[d.at]
	d.at++
	return x
}

// Bool consumes one byte as a boolean.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Uvarint consumes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	n, w := binary.Uvarint(d.b[d.at:d.end])
	if w <= 0 {
		d.fail()
		return 0
	}
	d.at += w
	return n
}

// Varint consumes a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	n, w := binary.Varint(d.b[d.at:d.end])
	if w <= 0 {
		d.fail()
		return 0
	}
	d.at += w
	return n
}

// U32 consumes one fixed little-endian word.
func (d *Dec) U32() uint32 {
	if d.err != nil || d.Rest() < 4 {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint32(d.b[d.at:])
	d.at += 4
	return x
}

// U64 consumes one fixed little-endian double-word (e.g. float64 bits).
func (d *Dec) U64() uint64 {
	if d.err != nil || d.Rest() < 8 {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint64(d.b[d.at:])
	d.at += 8
	return x
}

// U16 consumes one fixed little-endian half-word.
func (d *Dec) U16() uint16 {
	if d.err != nil || d.Rest() < 2 {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint16(d.b[d.at:])
	d.at += 2
	return x
}

// String consumes a uvarint length followed by that many bytes.
func (d *Dec) String() string { return string(d.frame()) }

// frame consumes a uvarint length and returns that many bytes, unowned.
func (d *Dec) frame() []byte {
	n := d.Uvarint()
	if d.err != nil || uint64(d.Rest()) < n {
		d.fail()
		return nil
	}
	f := d.b[d.at : d.at+int(n)]
	d.at += int(n)
	return f
}

// Record consumes one record written by AppendRecord.
func (d *Dec) Record() (key string, v any) {
	k := d.frame()
	val := d.frame()
	if d.err != nil {
		return "", nil
	}
	// The value is read by this Dec, cut off where the value ends.
	rest := d.end
	d.end = d.at
	d.at -= len(val)
	if v = d.value(); d.err != nil {
		// Wrapped, so a bad value inside a complete frame is never taken
		// for errTruncated.
		d.err = fmt.Errorf("spill: record value: %w", d.err)
		return "", nil
	}
	d.end = rest
	return string(k), v
}

// value consumes all that is left as one value, tag and payload: a byte the
// value's codec leaves unread is an error, not padding.
func (d *Dec) value() (v any) {
	switch tag := d.Byte(); {
	case d.err != nil:
	case tag == tagNil:
	case tag == tagFalse:
		v = false
	case tag == tagTrue:
		v = true
	case kindsByTag[tag] == nil:
		d.err = fmt.Errorf("spill: unknown value tag %d", tag)
	default:
		v = kindsByTag[tag].read(d)
	}
	d.consumed()
	if d.err != nil {
		return nil
	}
	return v
}

// consumed fails d when a value's codec left some of it unread.
func (d *Dec) consumed() {
	if d.err == nil && d.Rest() > 0 {
		d.err = fmt.Errorf("spill: %d bytes left over after a value", d.Rest())
	}
}

// tail consumes everything left and returns it, unowned.
func (d *Dec) tail() []byte {
	b := d.b[d.at:d.end]
	d.at = d.end
	return b
}

// U32s consumes a count-prefixed []uint32 written by AppendU32s. Returns a
// non-nil empty slice for a zero count, matching an encoded empty slice.
// Inside a tailed column's decode (RegisterTailed) the words are the
// Dec's own, reused by its next such call, and the column copies them.
func (d *Dec) U32s() []uint32 {
	if d.lend {
		d.scratch = readWords(d, d.scratch[:0])
		return d.scratch
	}
	return readWords(d, []uint32{})
}

// I32s consumes a count-prefixed []int32 written by AppendI32s.
func (d *Dec) I32s() []int32 { return readWords(d, []int32{}) }

// readWords appends the count-prefixed words d holds to xs. The count
// is compared by division: 4*n wraps for n ≥ 2^62.
func readWords[T uint32 | int32](d *Dec, xs []T) []T {
	n := d.Uvarint()
	if d.err != nil || n > uint64(d.Rest())/4 {
		d.fail()
		return nil
	}
	xs = slices.Grow(xs, int(n))
	for i := 0; i < int(n); i++ {
		xs = append(xs, T(binary.LittleEndian.Uint32(d.b[d.at+4*i:])))
	}
	d.at += 4 * int(n)
	return xs
}
