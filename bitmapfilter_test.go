package fsjoin

import (
	"reflect"
	"testing"
)

// TestBitmapFilterGoldenEquivalence runs the golden corpus through every
// FS-Join kernel and RIDPairsPPJoin with the bitmap filter forced on and
// forced off through FSJOIN_BITMAP: the emitted pairs must be
// byte-identical (the filter only skips work), the on-run must actually
// build signatures and reject candidates, and RIDPairsPPJoin's
// verified-candidate count must shrink.
func TestBitmapFilterGoldenEquivalence(t *testing.T) {
	texts, _ := loadGolden(t)
	run := func(opt Options, bitmap string) *Result {
		t.Helper()
		t.Setenv("FSJOIN_BITMAP", bitmap)
		res, err := SelfJoinStrings(texts, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"fsjoin-prefix", Options{Threshold: goldenTheta, Nodes: 3, JoinMethod: PrefixJoin}},
		{"fsjoin-index", Options{Threshold: goldenTheta, Nodes: 3, JoinMethod: IndexJoin}},
		{"fsjoin-loop", Options{Threshold: goldenTheta, Nodes: 3, JoinMethod: LoopJoin}},
		{"ridpairs", Options{Threshold: goldenTheta, Nodes: 3, Algorithm: RIDPairsPPJoin}},
	} {
		resOff, resOn := run(cfg.opt, "off"), run(cfg.opt, "on")
		if !reflect.DeepEqual(formatPairs(resOn.Pairs), formatPairs(resOff.Pairs)) {
			t.Fatalf("%s: pairs differ with bitmap filter on (%d) vs off (%d)",
				cfg.name, len(resOn.Pairs), len(resOff.Pairs))
		}
		if resOff.Stats.BitmapBuilt != 0 || resOff.Stats.BitmapRejected != 0 || resOff.Stats.BitmapPassed != 0 {
			t.Fatalf("%s: bitmap counters nonzero with filter off: %+v", cfg.name, resOff.Stats)
		}
		if resOn.Stats.BitmapBuilt == 0 {
			t.Fatalf("%s: no signatures built with filter on", cfg.name)
		}
		if resOn.Stats.BitmapRejected == 0 {
			t.Fatalf("%s: bitmap filter never rejected on the golden corpus", cfg.name)
		}
		if cfg.name == "ridpairs" && resOn.Stats.VerifiedCandidates >= resOff.Stats.VerifiedCandidates {
			t.Fatalf("%s: verified candidates %d not below unfiltered %d",
				cfg.name, resOn.Stats.VerifiedCandidates, resOff.Stats.VerifiedCandidates)
		}
	}
}

// TestVerifiedCandidatesEveryAlgorithm: every algorithm counts the pairs its
// final stage verifies exactly. A self-join verifies at least every pair it
// returns; in an R-S join every verified pair is a cross-relation one, so
// the count equals RSCandidates.
func TestVerifiedCandidatesEveryAlgorithm(t *testing.T) {
	texts, queries := readLines(t, goldenTexts), readLines(t, goldenRSQueries)
	for _, algo := range []Algorithm{
		FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight, ApproxLSHJoin,
	} {
		opt := Options{Threshold: goldenTheta, Algorithm: algo, LocalParallelism: 1}
		res, err := SelfJoinStrings(texts, opt)
		if err != nil {
			t.Fatalf("%v self: %v", algo, err)
		}
		if s := res.Stats; len(res.Pairs) == 0 || s.VerifiedCandidates < int64(len(res.Pairs)) {
			t.Errorf("%v self: verified candidates %d, pairs %d", algo, s.VerifiedCandidates, len(res.Pairs))
		}
		if algo == MassJoinMerge || algo == MassJoinMergeLight {
			continue
		}
		if res, err = JoinStrings(queries, texts, opt); err != nil {
			t.Fatalf("%v rs: %v", algo, err)
		}
		if s := res.Stats; s.RSCandidates == 0 || s.VerifiedCandidates != s.RSCandidates {
			t.Errorf("%v rs: verified candidates %d, rs candidates %d", algo, s.VerifiedCandidates, s.RSCandidates)
		}
	}
}

// TestBitmapEnvOverride checks the FSJOIN_BITMAP test switch: the filter
// is on by default and the switch turns it off and back on.
func TestBitmapEnvOverride(t *testing.T) {
	texts, _ := loadGolden(t)
	t.Setenv("FSJOIN_BITMAP", "off")
	res, err := SelfJoinStrings(texts, Options{Threshold: goldenTheta})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BitmapBuilt != 0 {
		t.Fatalf("auto mode ignored FSJOIN_BITMAP=off: built %d", res.Stats.BitmapBuilt)
	}
	for _, v := range []string{"on", ""} {
		t.Setenv("FSJOIN_BITMAP", v)
		res, err = SelfJoinStrings(texts, Options{Threshold: goldenTheta})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BitmapBuilt == 0 {
			t.Fatalf("FSJOIN_BITMAP=%q: no signatures built", v)
		}
	}
}
