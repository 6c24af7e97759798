package fsjoin

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// corpus builds texts with planted duplicates.
func corpus(n int, seed int64) []string {
	words := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa " +
		"lambda mu nu xi omicron pi rho sigma tau upsilon")
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			base := strings.Fields(out[rng.Intn(i)])
			if len(base) > 1 && rng.Intn(2) == 0 {
				base = base[:len(base)-1]
			}
			base = append(base, words[rng.Intn(len(words))])
			out = append(out, strings.Join(base, " "))
			continue
		}
		k := rng.Intn(8) + 3
		var sb strings.Builder
		for j := 0; j < k; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		out = append(out, sb.String())
	}
	return out
}

func TestAllAlgorithmsAgree(t *testing.T) {
	texts := corpus(90, 1)
	algos := []Algorithm{FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight}
	var want []Pair
	for i, algo := range algos {
		res, err := SelfJoinStrings(texts, Options{Threshold: 0.7, Algorithm: algo, Nodes: 3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if i == 0 {
			want = res.Pairs
			if len(want) == 0 {
				t.Fatal("no pairs found — corpus too sparse")
			}
			continue
		}
		if len(res.Pairs) != len(want) {
			t.Fatalf("%v: %d pairs, want %d", algo, len(res.Pairs), len(want))
		}
		for j := range want {
			if res.Pairs[j].A != want[j].A || res.Pairs[j].B != want[j].B ||
				res.Pairs[j].Common != want[j].Common {
				t.Fatalf("%v: pair %d = %+v, want %+v", algo, j, res.Pairs[j], want[j])
			}
		}
	}
}

func TestApproxLSHJoin(t *testing.T) {
	texts := corpus(90, 1)
	exact, err := SelfJoinStrings(texts, Options{Threshold: 0.7, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := SelfJoinStrings(texts, Options{Threshold: 0.7, Algorithm: ApproxLSHJoin, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[uint64]bool{}
	for _, p := range exact.Pairs {
		keys[uint64(uint32(p.A))<<32|uint64(uint32(p.B))] = true
	}
	for _, p := range approx.Pairs {
		if !keys[uint64(uint32(p.A))<<32|uint64(uint32(p.B))] {
			t.Fatalf("approx false positive: %+v", p)
		}
	}
	if float64(len(approx.Pairs)) < 0.9*float64(len(exact.Pairs)) {
		t.Fatalf("approx recall too low: %d of %d", len(approx.Pairs), len(exact.Pairs))
	}
	if _, err := SelfJoinStrings(texts, Options{Threshold: 0.7, Algorithm: ApproxLSHJoin, Function: Dice}); err == nil {
		t.Fatal("approx with Dice accepted")
	}
}

func TestAllSimilarityFunctions(t *testing.T) {
	texts := corpus(60, 2)
	for _, fn := range []Similarity{Jaccard, Dice, Cosine} {
		res, err := SelfJoinStrings(texts, Options{Threshold: 0.8, Function: fn, Nodes: 3})
		if err != nil {
			t.Fatalf("fn %d: %v", fn, err)
		}
		for _, p := range res.Pairs {
			if p.Similarity < 0.8-1e-9 {
				t.Fatalf("fn %d: returned pair below threshold: %+v", fn, p)
			}
		}
	}
}

func TestSelfJoinSets(t *testing.T) {
	res, err := SelfJoinSets([][]string{
		{"a", "b", "c"},
		{"a", "b", "c", "d"},
		{"x", "y"},
	}, Options{Threshold: 0.7, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].A != 0 || res.Pairs[0].B != 1 || res.Pairs[0].Common != 3 {
		t.Fatalf("pairs = %+v", res.Pairs)
	}
	if res.Stats.SimulatedTime <= 0 || res.Stats.ShuffleRecords <= 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
}

func TestRSJoin(t *testing.T) {
	dict := NewDictionary()
	r := dict.NewCollection([][]string{{"a", "b", "c"}, {"q", "w", "e"}})
	s := dict.NewCollection([][]string{{"a", "b", "c", "d"}, {"z", "z2"}})
	res, err := r.Join(s, Options{Threshold: 0.7, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].A != 0 || res.Pairs[0].B != 0 {
		t.Fatalf("pairs = %+v", res.Pairs)
	}
}

func TestRSJoinRequiresSharedDictionary(t *testing.T) {
	r := NewDictionary().NewCollection([][]string{{"a"}})
	s := NewDictionary().NewCollection([][]string{{"a"}})
	if _, err := r.Join(s, Options{Threshold: 0.5}); err == nil {
		t.Fatal("cross-dictionary join accepted")
	}
}

func TestRSJoinBaselinesRejected(t *testing.T) {
	dict := NewDictionary()
	r := dict.NewCollection([][]string{{"a"}})
	s := dict.NewCollection([][]string{{"a"}})
	for _, algo := range []Algorithm{MassJoinMerge, MassJoinMergeLight} {
		_, err := r.Join(s, Options{Threshold: 0.5, Algorithm: algo})
		if !errors.Is(err, ErrSelfJoinOnly) {
			t.Fatalf("%v: err = %v, want ErrSelfJoinOnly", algo, err)
		}
	}
	// Every other algorithm accepts R-S input — including the overlapping
	// rid-space case above, where R#0 and S#0 are distinct records.
	for _, algo := range []Algorithm{FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, ApproxLSHJoin} {
		res, err := r.Join(s, Options{Threshold: 0.5, Algorithm: algo, Nodes: 2})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Pairs) != 1 || res.Pairs[0].A != 0 || res.Pairs[0].B != 0 {
			t.Fatalf("%v: pairs = %+v, want the single (0,0) cross pair", algo, res.Pairs)
		}
	}
}

func TestRSJoinRIDPairsMatchesFSJoin(t *testing.T) {
	dict := NewDictionary()
	r := dict.NewTextCollection(corpus(50, 21))
	s := dict.NewTextCollection(corpus(60, 22))
	fs, err := r.Join(s, Options{Threshold: 0.7, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	rid, err := r.Join(s, Options{Threshold: 0.7, Algorithm: RIDPairsPPJoin, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Pairs) != len(rid.Pairs) {
		t.Fatalf("fs %d pairs, ridpairs %d", len(fs.Pairs), len(rid.Pairs))
	}
	for i := range fs.Pairs {
		if fs.Pairs[i].A != rid.Pairs[i].A || fs.Pairs[i].B != rid.Pairs[i].B {
			t.Fatalf("pair %d differs: %+v vs %+v", i, fs.Pairs[i], rid.Pairs[i])
		}
	}
}

func TestInvalidOptions(t *testing.T) {
	texts := []string{"a b"}
	if _, err := SelfJoinStrings(texts, Options{Threshold: 0}); err == nil {
		t.Fatal("theta 0 accepted")
	}
	if _, err := SelfJoinStrings(texts, Options{Threshold: 0.5, Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := SelfJoinStrings(texts, Options{Threshold: 0.5, Function: Similarity(99)}); err == nil {
		t.Fatal("unknown function accepted")
	}
	// An unknown kernel or pivot selection used to run as the default.
	for _, algo := range []Algorithm{FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight, ApproxLSHJoin} {
		if _, err := SelfJoinStrings(texts, Options{Threshold: 0.5, Algorithm: algo, JoinMethod: JoinMethod(9)}); err == nil {
			t.Fatalf("%v: unknown join method accepted", algo)
		}
		if _, err := SelfJoinStrings(texts, Options{Threshold: 0.5, Algorithm: algo, PivotSelection: PivotSelection(9)}); err == nil {
			t.Fatalf("%v: unknown pivot selection accepted", algo)
		}
	}
}

func TestWorkBudgetSurfacesError(t *testing.T) {
	texts := corpus(80, 3)
	_, err := SelfJoinStrings(texts, Options{Threshold: 0.7, Algorithm: VSmartJoin, WorkBudget: 3, Nodes: 2})
	if err == nil {
		t.Fatal("budget exhaustion not surfaced")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		FSJoin:             "fs-join",
		FSJoinV:            "fs-join-v",
		RIDPairsPPJoin:     "ridpairs-ppjoin",
		VSmartJoin:         "v-smart-join",
		MassJoinMerge:      "massjoin-merge",
		MassJoinMergeLight: "massjoin-merge+light",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := SelfJoinStrings(nil, Options{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("pairs from empty input: %v", res.Pairs)
	}
}

func TestCollectionLen(t *testing.T) {
	c := NewDictionary().NewTextCollection([]string{"a b", "c"})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}
