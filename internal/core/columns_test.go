package core

import (
	"fmt"
	"testing"

	"fsjoin/internal/dataset"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/partition"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// TestShuffleHoldsNoBoxedPartition: on miniatures of the benchmark's join
// shapes — PubMed under the public defaults, an R-S join of Email in 8
// fragments and Wiki in one — every shuffle partition of every stage
// (ordering counts, segments, partial overlaps) reaches its reduce task in
// a column of its own type, never boxed, in memory and under a 1 KiB
// budget that spills them all.
func TestShuffleHoldsNoBoxedPartition(t *testing.T) {
	split := func(c *tokens.Collection) (r, s *tokens.Collection) {
		r, s = &tokens.Collection{}, &tokens.Collection{}
		for i, rec := range c.Records {
			side := r
			if i%2 == 1 {
				side = s
			}
			rec.RID = int32(len(side.Records))
			side.Records = append(side.Records, rec)
		}
		return r, s
	}
	for _, shape := range []struct {
		name     string
		profile  dataset.Profile
		rs       bool
		theta    float64
		vertical int
	}{
		{"self_pubmed_defaults", dataset.PubMed().Scale(0.05), false, 0.8, 30},
		{"rs_email_kernel", dataset.Email().Scale(0.2), true, 0.8, 8},
		{"self_wiki", dataset.Wiki().Scale(0.05), false, 0.9, 1},
	} {
		c := dataset.Generate(shape.profile, 1)
		for _, budget := range []int64{-1, 1024} {
			label := fmt.Sprintf("%s, budget %d", shape.name, budget)
			opt := Options{Theta: shape.theta, PivotMethod: partition.EvenTF, VerticalPartitions: shape.vertical,
				HorizontalPivots: 10, JoinMethod: fragjoin.Prefix, LocalParallelism: 2, MemoryBudget: budget,
				Env: mapreduce.Env{SpillDir: t.TempDir()}}
			before := spill.BoxedFetches()
			var res *Result
			var err error
			if shape.rs {
				r, s := split(c)
				res, err = Join(r, s, opt)
			} else {
				res, err = SelfJoin(c, opt)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if n := spill.BoxedFetches() - before; n != 0 {
				t.Errorf("%s: %d shuffle partitions reached their reduce task boxed", label, n)
			}
			if res.FilterOutputRecords == 0 {
				t.Fatalf("%s: the filtering job emitted nothing", label)
			}
			if spilled := res.Pipeline.Counter(mapreduce.CounterSpillRuns); (budget > 0) != (spilled > 0) {
				t.Fatalf("%s: %d spills", label, spilled)
			}
		}
	}
}
