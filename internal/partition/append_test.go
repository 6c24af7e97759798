package partition

import (
	"reflect"
	"testing"

	"fsjoin/internal/similarity"
)

// TestAppendFormsMatch: SplitAppend and AssignAppend append exactly what
// Split and Assign return, record after record into one reused buffer,
// and allocate nothing once the buffer has grown.
func TestAppendFormsMatch(t *testing.T) {
	o, oc := buildOrder(t, 150, 90, 25, 5)
	sp := NewSplitter(SelectPivots(EvenTF, o, 7, 3))
	h := NewHorizontal(similarity.Jaccard, 0.7, []int{4, 8, 16})
	var segs []Segment
	var asgs []Assignment
	for _, rec := range oc.Records {
		segs = sp.SplitAppend(append(segs[:0], Segment{Fragment: -1}), rec)
		if segs[0].Fragment != -1 || !reflect.DeepEqual(segs[1:], sp.Split(rec)) {
			t.Fatalf("record %d: SplitAppend %v, Split %v", rec.RID, segs[1:], sp.Split(rec))
		}
		asgs = h.AssignAppend(asgs[:0], rec.Len())
		if want := h.Assign(rec.Len()); !reflect.DeepEqual(asgs, want) {
			t.Fatalf("length %d: AssignAppend %v, Assign %v", rec.Len(), asgs, want)
		}
	}
	rec := oc.Records[0]
	if n := testing.AllocsPerRun(10, func() {
		segs = sp.SplitAppend(segs[:0], rec)
		asgs = h.AssignAppend(asgs[:0], rec.Len())
	}); n != 0 {
		t.Fatalf("%v allocations per record into grown buffers, want 0", n)
	}
}
