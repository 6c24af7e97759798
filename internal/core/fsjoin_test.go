package core

import (
	"math/rand"
	"testing"

	"fsjoin/internal/bruteforce"
	"fsjoin/internal/filters"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/partition"
	"fsjoin/internal/result"
	"fsjoin/internal/similarity"
	"fsjoin/internal/testutil"
	"fsjoin/internal/tokens"
)

// randomCollection builds a collection with frequent overlaps: small vocab,
// short records, plus near-duplicates.
func randomCollection(t *testing.T, n, vocab, maxLen int, seed int64) *tokens.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := &tokens.Collection{}
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			base := c.Records[rng.Intn(i)]
			ids := append([]tokens.ID{}, base.Tokens...)
			if len(ids) > 1 && rng.Intn(2) == 0 {
				ids = ids[:len(ids)-1]
			}
			ids = append(ids, tokens.ID(rng.Intn(vocab)))
			c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
			continue
		}
		l := rng.Intn(maxLen) + 1
		ids := make([]tokens.ID, l)
		for j := range ids {
			ids[j] = tokens.ID(rng.Intn(vocab))
		}
		c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
	}
	return c
}

func smallCluster() *mapreduce.Cluster {
	cl := mapreduce.DefaultCluster()
	cl.Nodes = 3
	return cl
}

func checkAgainstOracle(t *testing.T, got []result.Pair, want []result.Pair, label string) {
	t.Helper()
	if diffs := result.Diff(got, want, 10); len(diffs) != 0 {
		t.Errorf("%s: %d results, oracle %d; diffs:", label, len(got), len(want))
		for _, d := range diffs {
			t.Errorf("  %s", d)
		}
	}
}

func TestSelfJoinMatchesOracleAcrossConfigs(t *testing.T) {
	c := randomCollection(t, 120, 60, 25, 1)
	for _, theta := range []float64{0.5, 0.75, 0.9} {
		want := bruteforce.SelfJoin(c, similarity.Jaccard, theta)
		if len(want) == 0 {
			t.Fatalf("oracle empty at theta=%v — test data too sparse", theta)
		}
		for _, method := range []fragjoin.Method{fragjoin.Loop, fragjoin.Index, fragjoin.Prefix} {
			for _, hp := range []int{0, 3} {
				for _, pm := range []partition.PivotMethod{partition.Random, partition.EvenInterval, partition.EvenTF} {
					opt := Options{
						Theta:              theta,
						PivotMethod:        pm,
						VerticalPartitions: 7,
						HorizontalPivots:   hp,
						JoinMethod:         method,
						Cluster:            smallCluster(),
						Seed:               42,
					}
					res, err := SelfJoin(c, opt)
					if err != nil {
						t.Fatalf("SelfJoin(%v %v hp=%d pm=%v): %v", theta, method, hp, pm, err)
					}
					label := method.String() + "/" + pm.String()
					checkAgainstOracle(t, res.Pairs, want, label)
				}
			}
		}
	}
}

func TestRSJoinMatchesOracle(t *testing.T) {
	r := randomCollection(t, 80, 50, 20, 7)
	s := randomCollection(t, 90, 50, 20, 8)
	for _, theta := range []float64{0.6, 0.85} {
		want := bruteforce.Join(r, s, similarity.Jaccard, theta)
		for _, hp := range []int{0, 2} {
			opt := Options{
				Theta:              theta,
				PivotMethod:        partition.EvenTF,
				VerticalPartitions: 5,
				HorizontalPivots:   hp,
				JoinMethod:         fragjoin.Prefix,
				Cluster:            smallCluster(),
			}
			res, err := Join(r, s, opt)
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			checkAgainstOracle(t, res.Pairs, want, "rs-join")
		}
	}
}

// TestZeroOptionsResolve pins what a zero Options (only the required Theta
// set) resolves to. The zero PivotMethod and JoinMethod are Random and
// Loop — not the paper's EvenTF and Prefix, which the public layer passes
// explicitly — and the enums must not be renumbered to change that.
func TestZeroOptionsResolve(t *testing.T) {
	o, err := Options{Theta: 0.8}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"Fn", o.Fn, similarity.Jaccard},
		{"PivotMethod", o.PivotMethod, partition.Random},
		{"JoinMethod", o.JoinMethod, fragjoin.Loop},
		{"Filters", o.Filters, filters.All &^ filters.Prefix},
		{"OrderKind", o.OrderKind, order.FreqAscending},
		{"Cluster.Nodes", o.Cluster.Nodes, 10},
		{"VerticalPartitions", o.VerticalPartitions, 30},
		{"HorizontalPivots", o.HorizontalPivots, 0},
	} {
		if c.got != c.want {
			t.Errorf("zero Options: %s = %v, want %v", c.field, c.got, c.want)
		}
	}
}

// TestVerifyFinishGroup: the verification reducer's FinishGroup is its
// FinishFold — output and counters, self and R-S, on typed and boxed
// groups.
func TestVerifyFinishGroup(t *testing.T) {
	for _, rs := range []bool{false, true} {
		testutil.AssertFinishGroupAgrees(t, &result.Verifier{Fn: similarity.Jaccard, Theta: 0.5, RS: rs})
	}
}
