package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// The run format stores each value as a one-byte type tag followed by a
// tag-specific payload, so decoding restores the exact concrete Go type
// that was buffered — reducers type-switch on shuffle values, so "mostly
// the same type" is not good enough. Tags below firstCustomTag cover the
// natively sized kinds the engine's shuffle accounting already knows;
// packages whose jobs shuffle their own unexported structs register a
// codec per type from init() (see RegisterValue).
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagInt
	tagInt8
	tagInt16
	tagInt32
	tagInt64
	tagUint
	tagUint8
	tagUint16
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagBytes
	tagU32Slice
	tagI32Slice
	tagIntSlice
	tagStringSlice

	// firstCustomTag is the lowest tag RegisterValue accepts.
	firstCustomTag = 32
)

// EncodeFunc appends a value's payload (no tag) to buf and returns the
// extended slice.
type EncodeFunc func(buf []byte, v any) []byte

// DecodeFunc reconstructs a value from its payload. It must not retain b.
type DecodeFunc func(b []byte) (any, error)

type codecEntry struct {
	tag byte
	enc EncodeFunc
	dec DecodeFunc
}

var (
	codecsByType = map[reflect.Type]*codecEntry{}
	codecsByTag  [256]*codecEntry
)

// RegisterValue installs a codec for one concrete value type under a
// package-chosen tag (≥ 32; pick a distinct small range per package —
// collisions panic, so they surface at program start). Must be called from
// init(): the registry is read without locking once jobs run.
func RegisterValue(tag byte, sample any, enc EncodeFunc, dec DecodeFunc) {
	if tag < firstCustomTag {
		panic(fmt.Sprintf("spill: tag %d collides with builtin tags (< %d)", tag, firstCustomTag))
	}
	t := reflect.TypeOf(sample)
	if t == nil || enc == nil || dec == nil {
		panic("spill: RegisterValue needs a non-nil sample, encoder and decoder")
	}
	if codecsByTag[tag] != nil {
		panic(fmt.Sprintf("spill: tag %d registered twice", tag))
	}
	if _, dup := codecsByType[t]; dup {
		panic(fmt.Sprintf("spill: type %v registered twice", t))
	}
	e := &codecEntry{tag: tag, enc: enc, dec: dec}
	codecsByTag[tag] = e
	codecsByType[t] = e
}

// Encodable reports whether v can be written to a run: either a builtin
// kind or a registered type. Unencodable values stay pinned in memory (the
// budget turns soft) rather than failing the job.
func Encodable(v any) bool {
	switch v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string, []byte,
		[]uint32, []int32, []int, []string:
		return true
	}
	return codecsByType[reflect.TypeOf(v)] != nil
}

// appendValue appends tag + payload for v.
func appendValue(buf []byte, v any) ([]byte, error) {
	if out, ok := appendBuiltin(buf, v); ok {
		return out, nil
	}
	return appendCustom(buf, v)
}

// appendBuiltin is appendValue for the builtin kinds; false for any other.
// v goes nowhere from here, so a caller boxing a value for it does so on
// its stack.
func appendBuiltin(buf []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(buf, tagNil), true
	case bool:
		if x {
			return append(buf, tagTrue), true
		}
		return append(buf, tagFalse), true
	case int:
		return binary.AppendVarint(append(buf, tagInt), int64(x)), true
	case int8:
		return binary.AppendVarint(append(buf, tagInt8), int64(x)), true
	case int16:
		return binary.AppendVarint(append(buf, tagInt16), int64(x)), true
	case int32:
		return binary.AppendVarint(append(buf, tagInt32), int64(x)), true
	case int64:
		return binary.AppendVarint(append(buf, tagInt64), x), true
	case uint:
		return binary.AppendUvarint(append(buf, tagUint), uint64(x)), true
	case uint8:
		return binary.AppendUvarint(append(buf, tagUint8), uint64(x)), true
	case uint16:
		return binary.AppendUvarint(append(buf, tagUint16), uint64(x)), true
	case uint32:
		return binary.AppendUvarint(append(buf, tagUint32), uint64(x)), true
	case uint64:
		return binary.AppendUvarint(append(buf, tagUint64), x), true
	case float32:
		return binary.LittleEndian.AppendUint32(append(buf, tagFloat32), math.Float32bits(x)), true
	case float64:
		return binary.LittleEndian.AppendUint64(append(buf, tagFloat64), math.Float64bits(x)), true
	case string:
		return append(append(buf, tagString), x...), true
	case []byte:
		return append(append(buf, tagBytes), x...), true
	case []uint32:
		return AppendU32s(append(buf, tagU32Slice), x), true
	case []int32:
		return AppendI32s(append(buf, tagI32Slice), x), true
	case []int:
		buf = binary.AppendUvarint(append(buf, tagIntSlice), uint64(len(x)))
		for _, n := range x {
			buf = binary.AppendVarint(buf, int64(n))
		}
		return buf, true
	case []string:
		buf = binary.AppendUvarint(append(buf, tagStringSlice), uint64(len(x)))
		for _, s := range x {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		return buf, true
	}
	return buf, false
}

// appendCustom is appendValue for a registered type.
func appendCustom(buf []byte, v any) ([]byte, error) {
	e := codecsByType[reflect.TypeOf(v)]
	if e == nil {
		return nil, fmt.Errorf("spill: no codec registered for %T", v)
	}
	return e.enc(append(buf, e.tag), v), nil
}

// decodeValue reconstructs a value from tag + payload. It never retains b.
func decodeValue(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("spill: empty value frame")
	}
	tag, p := b[0], b[1:]
	switch tag {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt, tagInt8, tagInt16, tagInt32, tagInt64:
		n, w := binary.Varint(p)
		if w <= 0 {
			return nil, fmt.Errorf("spill: bad varint payload")
		}
		switch tag {
		case tagInt:
			return int(n), nil
		case tagInt8:
			return int8(n), nil
		case tagInt16:
			return int16(n), nil
		case tagInt32:
			return int32(n), nil
		}
		return n, nil
	case tagUint, tagUint8, tagUint16, tagUint32, tagUint64:
		n, w := binary.Uvarint(p)
		if w <= 0 {
			return nil, fmt.Errorf("spill: bad uvarint payload")
		}
		switch tag {
		case tagUint:
			return uint(n), nil
		case tagUint8:
			return uint8(n), nil
		case tagUint16:
			return uint16(n), nil
		case tagUint32:
			return uint32(n), nil
		}
		return n, nil
	case tagFloat32:
		if len(p) < 4 {
			return nil, fmt.Errorf("spill: short float32 payload")
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(p)), nil
	case tagFloat64:
		if len(p) < 8 {
			return nil, fmt.Errorf("spill: short float64 payload")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(p)), nil
	case tagString:
		return string(p), nil
	case tagBytes:
		return append([]byte(nil), p...), nil
	case tagU32Slice:
		d := NewDec(p)
		xs := d.U32s()
		return xs, d.Err()
	case tagI32Slice:
		d := NewDec(p)
		xs := d.I32s()
		return xs, d.Err()
	case tagIntSlice:
		d := NewDec(p)
		n := d.Uvarint()
		xs := make([]int, 0, min(n, 1<<16))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			xs = append(xs, int(d.Varint()))
		}
		return xs, d.Err()
	case tagStringSlice:
		d := NewDec(p)
		n := d.Uvarint()
		xs := make([]string, 0, min(n, 1<<16))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			xs = append(xs, d.String())
		}
		return xs, d.Err()
	}
	e := codecsByTag[tag]
	if e == nil {
		return nil, fmt.Errorf("spill: unknown value tag %d", tag)
	}
	return e.dec(p)
}

// AppendEncoded appends v's tag + payload frame to buf — the exact bytes a
// spill run stores for the value. Exported for the checkpoint subsystem,
// which persists stage outputs (and fingerprints stage inputs) in the run
// codec so replayed values decode to the same concrete types the shuffle
// restores.
func AppendEncoded(buf []byte, v any) ([]byte, error) { return appendValue(buf, v) }

// DecodeEncoded reconstructs a value written by AppendEncoded. It never
// retains b.
func DecodeEncoded(b []byte) (any, error) { return decodeValue(b) }

// AppendRecord appends one shuffle record in the wire form every persisted
// record shares — spill runs, transport frames and checkpoint files:
//
//	uvarint(len(key)) key uvarint(len(tag+payload)) tag payload
//
// The value is encoded in place and its length prefix slid in before it,
// so no per-record scratch is allocated. On error buf is returned as given.
func AppendRecord(buf []byte, key string, v any) ([]byte, error) {
	out := binary.AppendUvarint(buf, uint64(len(key)))
	out = append(out, key...)
	at := len(out)
	out, err := appendValue(out, v)
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
func AppendU32s(buf []byte, xs []uint32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, x)
	}
	return buf
}

// AppendI32s appends a uvarint count followed by fixed little-endian words.
func AppendI32s(buf []byte, xs []int32) []byte {
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
	b   []byte
	err error
}

// NewDec wraps a payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the number of unconsumed bytes — strict decoders use it to
// reject payloads with trailing garbage.
func (d *Dec) Rest() int { return len(d.b) }

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
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	x := d.b[0]
	d.b = d.b[1:]
	return x
}

// Bool consumes one byte as a boolean.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Uvarint consumes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	n, w := binary.Uvarint(d.b)
	if w <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[w:]
	return n
}

// Varint consumes a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	n, w := binary.Varint(d.b)
	if w <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[w:]
	return n
}

// U32 consumes one fixed little-endian word.
func (d *Dec) U32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return x
}

// U64 consumes one fixed little-endian double-word (e.g. float64 bits).
func (d *Dec) U64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return x
}

// U16 consumes one fixed little-endian half-word.
func (d *Dec) U16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return x
}

// String consumes a uvarint length followed by that many bytes.
func (d *Dec) String() string { return string(d.frame()) }

// frame consumes a uvarint length and returns that many bytes, unowned.
func (d *Dec) frame() []byte {
	n := d.Uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	f := d.b[:n]
	d.b = d.b[n:]
	return f
}

// Record consumes one record written by AppendRecord.
func (d *Dec) Record() (key string, v any) {
	key = d.String()
	val := d.frame()
	if d.err != nil {
		return "", nil
	}
	v, err := decodeValue(val)
	if err != nil {
		// Wrapped, so a bad value inside a complete frame is never taken
		// for errTruncated.
		d.err = fmt.Errorf("spill: record value: %w", err)
		return "", nil
	}
	return key, v
}

// U32s consumes a count-prefixed []uint32 written by AppendU32s. Returns a
// non-nil empty slice for a zero count, matching an encoded empty slice.
// The count is compared by division: 4*n wraps for n ≥ 2^62.
func (d *Dec) U32s() []uint32 {
	n := d.Uvarint()
	if d.err != nil || n > uint64(len(d.b))/4 {
		d.fail()
		return nil
	}
	xs := make([]uint32, n)
	for i := range xs {
		xs[i] = binary.LittleEndian.Uint32(d.b[4*i:])
	}
	d.b = d.b[4*n:]
	return xs
}

// I32s consumes a count-prefixed []int32 written by AppendI32s.
func (d *Dec) I32s() []int32 {
	n := d.Uvarint()
	if d.err != nil || n > uint64(len(d.b))/4 {
		d.fail()
		return nil
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(d.b[4*i:]))
	}
	d.b = d.b[4*n:]
	return xs
}
