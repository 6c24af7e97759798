package core

import (
	"testing"

	"fsjoin/internal/filters"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/similarity"
	"fsjoin/internal/testutil"
	"fsjoin/internal/tokens"
)

// TestEstimateTracksMeasuredVolumes: Lemma 5's analytic volumes must agree
// with the engine's measured metrics within small factors — the map/shuffle
// term exactly, the segment and comparison terms within the independence
// approximation's slack.
func TestEstimateTracksMeasuredVolumes(t *testing.T) {
	c := testutil.RandomCollection(200, 80, 25, 41)
	const n = 12
	opt := Options{
		Theta:              0.7,
		VerticalPartitions: n,
		JoinMethod:         fragjoin.Index,
		Filters:            filters.Set(0x80), // no pruning: compare the unfiltered bound
		HorizontalPivots:   0,
		Cluster:            testutil.SmallCluster(),
	}
	res, err := SelfJoin(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateCost(c, similarity.Jaccard, 0.7, n, 1.0)

	if est.MapRecords != int64(c.TotalTokens()) {
		t.Fatalf("MapRecords %d != total tokens %d", est.MapRecords, c.TotalTokens())
	}
	filter := res.Pipeline.Stages()[1]
	segs := filter.ShuffleRecords
	if ratio := float64(est.ExpectedSegments) / float64(segs); ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("segment estimate %d vs measured %d (ratio %.2f)", est.ExpectedSegments, segs, ratio)
	}
	comparisons := res.Pipeline.Counter(fragjoin.CtrComparisons)
	// The index kernel only touches co-occurring pairs, so measured
	// comparisons are bounded by the loop-join estimate.
	if comparisons > 3*est.CandidateRecords {
		t.Fatalf("comparisons %d far above Lemma 5 bound %d", comparisons, est.CandidateRecords)
	}
	if est.CandidateRecords <= 0 {
		t.Fatal("empty candidate estimate")
	}
}

func TestEstimateEmpty(t *testing.T) {
	est := EstimateCost(&tokens.Collection{}, similarity.Jaccard, 0.8, 10, 1.0)
	if est.MapRecords != 0 || est.ExpectedSegments != 0 || est.CandidateRecords != 0 {
		t.Fatalf("empty estimate: %+v", est)
	}
}

func TestEstimateShape(t *testing.T) {
	c := testutil.RandomCollection(100, 40, 20, 42)
	prev := EstimateCost(c, similarity.Jaccard, 0.8, 1, 1.0)
	for _, n := range []int{2, 8, 32} {
		est := EstimateCost(c, similarity.Jaccard, 0.8, n, 1.0)
		// More fragments → more (smaller) segments.
		if est.ExpectedSegments < prev.ExpectedSegments {
			t.Fatalf("segments not monotone at n=%d", n)
		}
		// Candidate term follows Lemma 5's N·(segments/N)²/2 exactly.
		segs := float64(est.ExpectedSegments)
		want := int64(float64(n) * (segs / float64(n)) * (segs / float64(n)) / 2)
		diff := est.CandidateRecords - want
		if diff < 0 {
			diff = -diff
		}
		// ExpectedSegments is truncated to int64, so allow ~1% slack.
		if tol := want/50 + 2; diff > tol {
			t.Fatalf("candidate term %d != N(M·p)²/2N = %d", est.CandidateRecords, want)
		}
		// Alpha scales the candidate term linearly.
		half := EstimateCost(c, similarity.Jaccard, 0.8, n, 0.5)
		if half.CandidateRecords > est.CandidateRecords/2+1 {
			t.Fatalf("alpha not linear at n=%d", n)
		}
		prev = est
	}
}
