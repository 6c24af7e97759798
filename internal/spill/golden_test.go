package spill

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// goldenFrames is the wire format, pinned: one value of every builtin kind
// and of every registered type, as AppendEncoded wrote it at the commit
// before the typed registry (c017c4b), with the concrete type and the %+v
// of the value it decodes to. The bytes are those in every run, transport
// frame, checkpoint snapshot and stage fingerprint already on disk.
var goldenFrames = []struct{ hex, typ, val string }{
	{"00", "<nil>", "<nil>"},
	{"01", "bool", "false"},
	{"02", "bool", "true"},
	{"030d", "int", "-7"},
	{"040f", "int8", "-8"},
	{"05870e", "int16", "-900"},
	{"0680808001", "int32", "1048576"},
	{"07ffffffffff3f", "int64", "-1099511627776"},
	{"0807", "uint", "7"},
	{"09c801", "uint8", "200"},
	{"0ae0d403", "uint16", "60000"},
	{"0b8080808004", "uint32", "1073741824"},
	{"0c8080808080808002", "uint64", "1125899906842624"},
	{"0d00006040", "float32", "3.5"},
	{"0e00000000000002c0", "float64", "-2.25"},
	{"0f68656c6c6f20cebacf8ccf83cebcceb5", "string", "hello κόσμε"},
	{"10000102ff", "[]uint8", "[0 1 2 255]"},
	{"1103010000000200000000000080", "[]uint32", "[1 2 2147483648]"},
	{"1203ffffffff0000000001000000", "[]int32", "[-1 0 1]"},
	{"1302090a", "[]int", "[-5 5]"},
	{"1403016100026263", "[]string", "[a  bc]"},
	{"2812010250060a03040000000500000058020000", "fragjoin.Seg", "{RID:9 Origin:1 Role:large StrLen:40 Head:3 Tail:5 Tokens:[4 5 600]}"},
	{"290614e012", "result.Overlap", "{C:3 La:10 Lb:1200}"},
	{"2a019a01020100000070110100", "rsinput.Record", "{Rec:r77{1 70000} Origin:1}"},
	{"2e01f2c00122", "rsinput.Posting", "{Origin:1 RID:12345 Len:17}"},
	{"320dd804010100e903d107b90ba10f89137117591b411f29231127f92ae12ec932b136993a", "massjoin.sigEntry", "{rid:-7 l:300 probe:true light:[1 1001 2001 3001 4001 5001 6001 7001 8001 9001 10001 11001 12001 13001 14001 15001]}"},
	{"33", "result.Candidate", "{}"},
	{"3503ffffffff0000000000001000", "massjoin.ridList", "{rids:[-1 0 1048576]}"},
	{"360a000000000000ea3f", "result.Scored", "{C:5 Sim:0.8125}"},
	{"3bff880f", "minhash.partner", "-123456"},
	{"3d05020800000009000000", "order.RecordValue", "{Rec:r-3{8 9}}"},
}

// goldenSizes is the accounted size of the value each goldenFrames row
// decodes to, row by row: what the engine charged for it before sizes moved
// into the registry (c59bd01), and so what every shuffle byte, spill byte
// and simulated second already reported rests on.
var goldenSizes = []struct {
	typ  string
	size int
}{
	{"<nil>", 0},
	{"bool", 1},
	{"bool", 1},
	{"int", 8},
	{"int8", 1},
	{"int16", 2},
	{"int32", 4},
	{"int64", 8},
	{"uint", 8},
	{"uint8", 1},
	{"uint16", 2},
	{"uint32", 4},
	{"uint64", 8},
	{"float32", 4},
	{"float64", 8},
	{"string", 16},
	{"[]uint8", 4},
	{"[]uint32", 12},
	{"[]int32", 12},
	{"[]int", 16},
	{"[]string", 15},
	{"fragjoin.Seg", 30},
	{"result.Overlap", 12},
	{"rsinput.Record", 13},
	{"rsinput.Posting", 9},
	{"massjoin.sigEntry", 41},
	{"result.Candidate", 0},
	{"massjoin.ridList", 12},
	{"result.Scored", 12},
	{"minhash.partner", 4},
	{"order.RecordValue", 12},
}

// goldenFrame returns row i's bytes and the value they decode to.
func goldenFrame(t *testing.T, i int) ([]byte, any) {
	t.Helper()
	g := goldenFrames[i]
	frame, err := hex.DecodeString(g.hex)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeEncoded(frame)
	if err != nil {
		t.Fatalf("%s frame %s: %v", g.typ, g.hex, err)
	}
	return frame, v
}

// TestGoldenWireFormat: every pinned frame decodes to the pinned value, of
// the pinned concrete type, and encodes back to the same bytes; and the
// table leaves no tag out — a type registered tomorrow fails here until it
// has a row.
func TestGoldenWireFormat(t *testing.T) {
	pinned := map[byte]bool{}
	for i, g := range goldenFrames {
		frame, v := goldenFrame(t, i)
		pinned[frame[0]] = true
		if typ, val := fmt.Sprintf("%T", v), fmt.Sprintf("%+v", v); typ != g.typ || val != g.val {
			t.Errorf("frame %s decodes to %s %s, want %s %s", g.hex, typ, val, g.typ, g.val)
		}
		if got, err := AppendEncoded(nil, v); err != nil || !bytes.Equal(got, frame) {
			t.Errorf("%s %s encodes to %x (%v), want %s", g.typ, g.val, got, err, g.hex)
		}
	}
	for tag, k := range kindsByTag {
		if k != nil && tag < tagTest && !pinned[byte(tag)] {
			t.Errorf("tag %d (%v) is registered and has no golden frame", tag, k.typ)
		}
	}
	for _, tag := range []byte{TagSeg, TagOverlap, TagRSRecord, TagPosting, TagSigEntry,
		TagCandidate, TagRidList, TagScored, TagPartner, TagRecordValue} {
		if kindsByTag[tag] == nil {
			t.Errorf("tag %d is not registered in this binary: registrants_test.go imports its owner", tag)
		}
	}
}

// TestGoldenAccountedSize: every pinned value is accounted at its pinned
// size, by a Sizer that has just sized a value of another type and by one
// that sized the same value last; a value of no registered type is charged
// 16; and the table leaves no tag out.
func TestGoldenAccountedSize(t *testing.T) {
	if len(goldenSizes) != len(goldenFrames) {
		t.Fatalf("%d size rows for %d frames", len(goldenSizes), len(goldenFrames))
	}
	var s Sizer
	sized := map[byte]bool{}
	for i, g := range goldenSizes {
		if g.typ != goldenFrames[i].typ {
			t.Fatalf("size row %d is a %s, frame row %d a %s", i, g.typ, i, goldenFrames[i].typ)
		}
		frame, v := goldenFrame(t, i)
		sized[frame[0]] = true
		if got, again := s.Size(v), s.Size(v); got != g.size || again != g.size {
			t.Errorf("%s %s accounted at %d, then %d; want %d", g.typ, goldenFrames[i].val, got, again, g.size)
		}
	}
	if got := s.Size(unregistered{1}); got != 16 {
		t.Errorf("unregistered struct accounted at %d, want 16", got)
	}
	for tag, k := range kindsByTag {
		if k != nil && tag < tagTest && !sized[byte(tag)] {
			t.Errorf("tag %d (%v) is registered and has no size row", tag, k.typ)
		}
	}
}

// TestSizerShared: one Sizer used at once by goroutines sizing values of
// different types, as a shuffle sink's adds and its partitions' concurrent
// merges use one, accounts every value at its pinned size.
func TestSizerShared(t *testing.T) {
	vals := make([]any, len(goldenFrames))
	for i := range vals {
		_, vals[i] = goldenFrame(t, i)
	}
	var s Sizer
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				// Each goroutine dwells on a type for a few values, then moves on.
				i := (n/4 + 7*g) % len(vals)
				if got := s.Size(vals[i]); got != goldenSizes[i].size {
					t.Errorf("%s accounted at %d, want %d", goldenSizes[i].typ, got, goldenSizes[i].size)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTrailingBytesRefused: a frame with a byte after its payload is
// refused, for every tag there is — alone, and as the value of a record,
// where the refusal must not read as a record cut short. A string or a
// []byte is all of its payload, so the byte is one more of it.
func TestTrailingBytesRefused(t *testing.T) {
	for i, g := range goldenFrames {
		frame, _ := goldenFrame(t, i)
		longer := append(frame[:len(frame):len(frame)], 0)
		v, err := DecodeEncoded(longer)
		if frame[0] == tagString || frame[0] == tagBytes {
			if err != nil || fmt.Sprintf("%+v", v) == g.val {
				t.Errorf("%s frame and one byte: %v, %v", g.typ, v, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s frame %s and one byte decodes to %+v", g.typ, g.hex, v)
		}
		rec := append([]byte{1, 'k', byte(len(longer))}, longer...)
		d := NewDec(rec)
		if _, v := d.Record(); d.Err() == nil || errors.Is(d.Err(), errTruncated) {
			t.Errorf("%s record with one byte after the value: %+v, %v", g.typ, v, d.Err())
		}
	}
	for _, frame := range [][]byte{
		{TagCandidate, 0xff, 0xfe, 1, 2, 3},
		{TagOverlap, 0x06, 0x14, 0xe0, 0x12, 9, 9, 9},
		{tagInt64, 0x0d, 0xff, 0xfe},
	} {
		if v, err := DecodeEncoded(frame); err == nil {
			t.Errorf("frame %x decodes to %+v", frame, v)
		}
	}
}
