package direct

import (
	"testing"

	"fsjoin/internal/bruteforce"
	"fsjoin/internal/dataset"
	"fsjoin/internal/result"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

func sets(c *tokens.Collection) [][]uint32 {
	out := make([][]uint32, len(c.Records))
	for i, r := range c.Records {
		out[i] = r.Tokens
	}
	return out
}

func same(t *testing.T, got []Pair, want []result.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, oracle has %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.A != int(w.A) || g.B != int(w.B) || g.Common != w.Common {
			t.Fatalf("pair %d: got %+v, oracle %v", i, g, w)
		}
	}
}

func TestSelfJoinMatchesOracle(t *testing.T) {
	for _, theta := range []float64{0.6, 0.8, 0.9, 1} {
		c := dataset.Generate(dataset.Wiki().Scale(0.2), 7)
		same(t, SelfJoin(sets(c), theta), bruteforce.SelfJoin(c, similarity.Jaccard, theta))
	}
}

func TestJoinMatchesOracle(t *testing.T) {
	r := dataset.Generate(dataset.PubMed().Scale(0.1), 3)
	s := dataset.Generate(dataset.PubMed().Scale(0.15), 3)
	same(t, Join(sets(r), sets(s), 0.7), bruteforce.Join(r, s, similarity.Jaccard, 0.7))
}
