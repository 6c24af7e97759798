package core

import (
	"testing"

	"fsjoin/internal/dataset"
	"fsjoin/internal/filters"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/partition"
	"fsjoin/internal/tokens"
)

// TestKernelCountsPinned pins what the fragment kernels count on the
// kernel-bound benchmark input at a quarter of its size (Email×2, seed 1,
// R = even records, S = odd): everything but the two bitmap counters is the
// value measured before the postings were split by class, so a kernel change
// that compares, prunes, emits or shuffles one record more or fewer fails
// here. The bitmap counters are the joinable pairs screened at their first
// shared posting, hence passed == comparisons; before the split they also
// counted R×R, S×S and same-side boundary pairs (232 036 passed, 1 147 595
// rejected on the R-S Prefix row).
func TestKernelCountsPinned(t *testing.T) {
	c := dataset.Generate(dataset.Email().Scale(2), 1)
	r, s := &tokens.Collection{}, &tokens.Collection{}
	for i, rec := range c.Records {
		side := r
		if i%2 == 1 {
			side = s
		}
		rec.RID = int32(len(side.Records))
		side.Records = append(side.Records, rec)
	}
	type counts struct {
		comparisons, prunedSegI, emitted, filterOut int64
		pairs                                       int
		shuffleRecords, passed, rejected            int64
	}
	for _, tc := range []struct {
		rs     bool
		method fragjoin.Method
		want   counts
	}{
		{true, fragjoin.Prefix, counts{58311, 34505, 23806, 23806, 176, 248917, 58311, 422740}},
		{true, fragjoin.Index, counts{58312, 34506, 23806, 23806, 176, 248917, 58312, 423985}},
		// The self-join's 15 horizontal partitions include 7 boundary ones,
		// joined small × large only.
		{false, fragjoin.Prefix, counts{116117, 68855, 47262, 47262, 325, 270370, 116117, 844983}},
		{false, fragjoin.Index, counts{116118, 68856, 47262, 47262, 325, 270370, 116118, 847522}},
	} {
		for _, par := range []int{1, 4} {
			opt := Options{
				Theta:              0.8,
				PivotMethod:        partition.EvenTF,
				VerticalPartitions: 8,
				HorizontalPivots:   7,
				JoinMethod:         tc.method,
				LocalParallelism:   par,
				Bitmap:             filters.BitmapConfig{Mode: filters.BitmapOn},
			}
			var res *Result
			var err error
			if tc.rs {
				res, err = Join(r, s, opt)
			} else {
				res, err = SelfJoin(c, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			p := res.Pipeline
			got := counts{
				p.Counter(fragjoin.CtrComparisons), p.Counter(fragjoin.CtrPrunedSegI),
				p.Counter(fragjoin.CtrEmitted), res.FilterOutputRecords, len(res.Pairs),
				p.TotalShuffleRecords(),
				p.Counter(filters.CtrBitmapPassed), p.Counter(filters.CtrBitmapRejected),
			}
			if got != tc.want {
				t.Errorf("rs=%v %v par=%d: got %+v, want %+v", tc.rs, tc.method, par, got, tc.want)
			}
		}
	}
}
