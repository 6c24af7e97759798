package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fsjoin/internal/spill"
)

func TestU32KeyRoundTripAndOrder(t *testing.T) {
	f := func(a, b uint32) bool {
		ka, kb := U32Key(a), U32Key(b)
		if DecodeU32Key(ka) != a {
			return false
		}
		// Lexicographic key order must equal numeric order.
		return (a < b) == (ka < kb) || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := DecodePairKey(PairKey(a, b))
		return x == a && y == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeKeys: the decoders read a key of their length in place and
// panic, naming the length, on any other.
func TestDecodeKeys(t *testing.T) {
	for _, tc := range []struct {
		key    string
		decode func(string) []uint32
		want   []uint32 // nil: the key is of the wrong length
		panic  string
	}{
		{U32Key(0), u32, []uint32{0}, ""},
		{U32Key(0xdeadbeef), u32, []uint32{0xdeadbeef}, ""},
		{PairKey(0, 0), pair, []uint32{0, 0}, ""},
		{PairKey(1, 0xffffffff), pair, []uint32{1, 0xffffffff}, ""},
		{PairKey(0x01020304, 0x05060708), pair, []uint32{0x01020304, 0x05060708}, ""},
		{"", u32, nil, "mapreduce: decoding a 0-byte key, want 4 bytes"},
		{"abc", u32, nil, "mapreduce: decoding a 3-byte key, want 4 bytes"},
		{PairKey(1, 2), u32, nil, "mapreduce: decoding a 8-byte key, want 4 bytes"},
		{U32Key(7), pair, nil, "mapreduce: decoding a 4-byte key, want 8 bytes"},
		{"123456789", pair, nil, "mapreduce: decoding a 9-byte key, want 8 bytes"},
	} {
		var got []uint32
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			got = tc.decode(tc.key)
			return ""
		}()
		if !reflect.DeepEqual(got, tc.want) || msg != tc.panic {
			t.Errorf("decoding %x: %v, panic %q; want %v, panic %q", tc.key, got, msg, tc.want, tc.panic)
		}
	}
}

func u32(k string) []uint32 { return []uint32{DecodeU32Key(k)} }

func pair(k string) []uint32 {
	a, b := DecodePairKey(k)
	return []uint32{a, b}
}

func TestOriginKeyRoundTripAndDisambiguation(t *testing.T) {
	f := func(origin uint8, rid uint32) bool {
		o, r := DecodeOriginKey(OriginKey(origin, rid))
		if o != origin || r != rid {
			return false
		}
		// R#rid and S#rid must never share a key — the rid spaces of the
		// two relations of an R-S join overlap.
		if origin != 0 && OriginKey(origin, rid) == OriginKey(0, rid) {
			return false
		}
		// Origin 0 keys stay the plain U32Key so self-join inputs (and
		// their checkpoint fingerprints) are unchanged by R-S support.
		return origin != 0 || OriginKey(0, rid) == U32Key(rid)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountersMergeAndSnapshot(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.Inc("x", 2)
	b.Inc("x", 3)
	b.Inc("y", 1)
	a.Merge(b)
	if a.Get("x") != 5 || a.Get("y") != 1 {
		t.Fatalf("merge wrong: %v", a.Snapshot())
	}
	snap := a.Snapshot()
	a.Inc("x", 1)
	if snap["x"] != 5 {
		t.Fatal("snapshot not isolated")
	}
	if !strings.Contains(a.String(), "x=6") {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestCountersGetMissing(t *testing.T) {
	c := NewCounters()
	if c.Get("nope") != 0 {
		t.Fatal("missing counter not zero")
	}
}

// drainBytes adds vals to a one-partition shuffle sink with the given
// budget and returns each record's accounted bytes as the sink drains it,
// in emission order, and the drain's merge fan-in.
func drainBytes(t *testing.T, budget int64, vals []any) ([]int64, int) {
	t.Helper()
	sink := newShuffleSink(nil, 1, nil, budget, t.TempDir(), nil)
	defer sink.close()
	for i, v := range vals {
		sink.add(U32Key(uint32(i)), v)
	}
	got := make([]int64, len(vals))
	ways, err := sink.buf.Drain(0, func(key string, _ any, bytes int64) {
		got[DecodeU32Key(key)] = bytes
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, ways
}

// TestSizeOf: the shuffle charges a record its key, its value's accounted
// size and eight bytes, a builtin kind accounted as its codec says; nil, a
// bool and a value of no registered type cannot join a partition, and fail
// the task with spill.ErrNoCodec.
func TestSizeOf(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{"abc", 3},
		{[]byte{1, 2}, 2},
		{int64(1), 8},
		{int32(1), 4},
		{[]uint32{1, 2, 3}, 12},
		{[]string{"ab", "c"}, 11},
	} {
		got, _ := drainBytes(t, -1, []any{c.v})
		if want := int64(len(U32Key(0)) + c.want + 8); got[0] != want {
			t.Errorf("%T accounted at %d, want %d", c.v, got[0]-int64(len(U32Key(0))+8), c.want)
		}
	}
	for _, v := range []any{nil, true, struct{}{}} {
		sink := newShuffleSink(nil, 1, nil, -1, t.TempDir(), nil)
		if err := Refused(func() { sink.add(U32Key(0), v) }); !errors.Is(err, spill.ErrNoCodec) {
			t.Errorf("a %T value added: %v, want spill.ErrNoCodec", v, err)
		}
		sink.close()
	}
}

// TestSizeOfSized: a type registered by a test, wrappedCount, is accounted
// at its Codec.Size, 8, not an unregistered type's 16 — in memory and again
// after a spill decodes it.
func TestSizeOfSized(t *testing.T) {
	vals := []any{wrappedCount{n: 99}, wrappedCount{n: -3}}
	for _, budget := range []int64{-1, 1} {
		got, ways := drainBytes(t, budget, vals)
		if budget > 0 && ways < 2 {
			t.Fatalf("budget %d: merge fan-in %d, want a spill", budget, ways)
		}
		for i, got := range got {
			if want := int64(len(U32Key(uint32(i))) + 8 + 8); got != want {
				t.Errorf("budget %d: %+v charged %d, want %d", budget, vals[i], got, want)
			}
		}
	}
}

func TestPipelineAggregation(t *testing.T) {
	p := NewPipeline("test", tinyCluster())
	in := wcInput("a b", "b c c")
	r1, err := p.Run(Config{Name: "first"}, in, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(Config{Name: "second"}, r1.Output, IdentityMapper, FirstValue{}); err != nil {
		t.Fatal(err)
	}
	if len(p.Stages()) != 2 {
		t.Fatalf("stages = %d", len(p.Stages()))
	}
	if p.TotalShuffleRecords() != r1.Metrics.ShuffleRecords+int64(len(r1.Output)) {
		t.Fatal("shuffle records not aggregated")
	}
	if p.StageTime("first") <= 0 || p.StageTime("missing") != 0 {
		t.Fatal("StageTime wrong")
	}
	if p.TotalSimulatedTime() < p.StageTime("first") {
		t.Fatal("total below stage")
	}
	if p.MaxLoadImbalance() < 1.0 {
		t.Fatalf("MaxLoadImbalance = %v", p.MaxLoadImbalance())
	}
}

func TestPipelineCounter(t *testing.T) {
	p := NewPipeline("c", tinyCluster())
	mapper := MapFunc(func(ctx *Context, kv KV) {
		ctx.Inc("n", 2)
		ctx.Emit(kv.Key, kv.Value)
	})
	if _, err := p.Run(Config{Name: "j"}, wcInput("a"), mapper, nil); err != nil {
		t.Fatal(err)
	}
	if p.Counter("n") != 2 {
		t.Fatalf("Counter = %d", p.Counter("n"))
	}
}
