package rsinput

import (
	"reflect"
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

func coll(rids ...int32) *tokens.Collection {
	c := &tokens.Collection{}
	for _, rid := range rids {
		c.Records = append(c.Records, tokens.NewRecord(rid, []tokens.ID{1, 2, uint32(rid) + 3}))
	}
	return c
}

// TestTagged pins the input layout every R-S algorithm relies on: R before
// S, origin in both key and value, overlapping rids kept apart, and a nil
// S meaning self-join.
func TestTagged(t *testing.T) {
	r, s := coll(0, 1), coll(1)
	if got := Tagged(r, nil); len(got) != 2 || got[1].Value.(Record).Origin != 0 {
		t.Fatalf("self-join input = %v", got)
	}
	if u := Union(r, nil); u != r {
		t.Fatal("self-join union is not r itself")
	}
	if u := Union(r, s); u.Len() != 3 {
		t.Fatalf("union has %d records, want 3", u.Len())
	}
	got := Tagged(r, s)
	if len(got) != 3 {
		t.Fatalf("R-S input has %d records, want 3", len(got))
	}
	for i, want := range []struct {
		origin uint8
		rid    uint32
	}{{0, 0}, {0, 1}, {1, 1}} {
		o, rid := mapreduce.DecodeOriginKey(got[i].Key)
		v := got[i].Value.(Record)
		if o != want.origin || rid != want.rid || v.Origin != want.origin || uint32(v.Rec.RID) != want.rid {
			t.Fatalf("input[%d] = key (%d,%d) value (%d,%d), want (%d,%d)",
				i, o, rid, v.Origin, v.Rec.RID, want.origin, want.rid)
		}
	}
	if got[1].Key == got[2].Key {
		t.Fatal("R#1 and S#1 share a key")
	}
}

func TestRecordCodec(t *testing.T) {
	in := Record{Rec: tokens.NewRecord(7, []tokens.ID{1, 2}), Origin: 1}
	buf, err := spill.AppendEncoded(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spill.DecodeEncoded(buf)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %v, %v; want %v", out, err, in)
	}
}
