package vsmart

import (
	"errors"
	"testing"

	"fsjoin/internal/bruteforce"
	"fsjoin/internal/result"
	"fsjoin/internal/similarity"
	"fsjoin/internal/testutil"
)

func TestVSmartMatchesOracle(t *testing.T) {
	c := testutil.RandomCollection(110, 60, 20, 21)
	for _, theta := range []float64{0.5, 0.75, 0.9} {
		want := bruteforce.SelfJoin(c, similarity.Jaccard, theta)
		res, err := SelfJoin(c, Options{Theta: theta, Cluster: testutil.SmallCluster()})
		if err != nil {
			t.Fatalf("SelfJoin(theta=%v): %v", theta, err)
		}
		testutil.AssertSameResults(t, "vsmart", res.Pairs, want)
	}
}

func TestVSmartShuffleInsensitiveToTheta(t *testing.T) {
	// The paper notes V-Smart-Join's cost is insensitive to θ because the
	// threshold is only applied in the final reduce.
	c := testutil.RandomCollection(100, 50, 18, 22)
	var bytes []int64
	for _, theta := range []float64{0.6, 0.9} {
		res, err := SelfJoin(c, Options{Theta: theta, Cluster: testutil.SmallCluster()})
		if err != nil {
			t.Fatal(err)
		}
		// Shuffle volume of the join phase (stage index 1 after ordering).
		bytes = append(bytes, res.Pipeline.Stages()[1].ShuffleBytes)
	}
	if bytes[0] != bytes[1] {
		t.Errorf("join-phase shuffle varies with theta: %v", bytes)
	}
}

func TestVSmartJoinRSMatchesOracle(t *testing.T) {
	// Both collections number their records from zero, so the rid spaces
	// overlap — pairing must be decided by relation, never by rid.
	r := testutil.RandomCollection(70, 50, 18, 31)
	s := testutil.RandomCollection(70, 50, 18, 32)
	for _, fn := range []similarity.Func{similarity.Jaccard, similarity.Dice, similarity.Cosine} {
		for _, theta := range []float64{0.5, 0.8} {
			want := bruteforce.Join(r, s, fn, theta)
			res, err := Join(r, s, Options{Fn: fn, Theta: theta, Cluster: testutil.SmallCluster()})
			if err != nil {
				t.Fatalf("Join(%v, theta=%v): %v", fn, theta, err)
			}
			testutil.AssertSameResults(t, "vsmart-rs", res.Pairs, want)
		}
	}
}

func TestVSmartJoinNilS(t *testing.T) {
	c := testutil.RandomCollection(5, 10, 5, 33)
	if _, err := Join(c, nil, Options{Theta: 0.5, Cluster: testutil.SmallCluster()}); err == nil {
		t.Fatal("nil S collection accepted")
	}
}

func TestVSmartBudget(t *testing.T) {
	c := testutil.RandomCollection(80, 30, 15, 23)
	_, err := SelfJoin(c, Options{Theta: 0.8, Cluster: testutil.SmallCluster(), MaxPairEmits: 5})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestThresholdFinishGroup: the similarity job's FinishGroup is its
// FinishFold — output and counters, self and R-S, on typed and boxed
// groups.
func TestThresholdFinishGroup(t *testing.T) {
	for _, rs := range []bool{false, true} {
		testutil.AssertFinishGroupAgrees(t, &result.Verifier{Fn: similarity.Jaccard, Theta: 0.5, RS: rs})
	}
}
