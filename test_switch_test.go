package fsjoin

import (
	"strings"
	"testing"
)

// TestMalformedTestSwitchRefused: a test switch that does not parse is an
// error naming the variable and its value, not the default path run in
// silence — FSJOIN_MEMORY_BUDGET for every algorithm, FSJOIN_BITMAP for
// every algorithm with a bitmap filter and for the probe index.
func TestMalformedTestSwitchRefused(t *testing.T) {
	texts, _ := loadGolden(t)
	texts = texts[:40]
	for _, tc := range []struct {
		env, value string
		algos      []Algorithm
	}{
		{"FSJOIN_MEMORY_BUDGET", "4k", []Algorithm{FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight, ApproxLSHJoin}},
		{"FSJOIN_BITMAP", "of", []Algorithm{FSJoin, FSJoinV, RIDPairsPPJoin}},
	} {
		t.Run(tc.env, func(t *testing.T) {
			t.Setenv(tc.env, tc.value)
			refused := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.env) || !strings.Contains(err.Error(), tc.value) {
					t.Errorf("%s under %s=%s: error %v, want one naming the variable and its value", what, tc.env, tc.value, err)
				}
			}
			for _, a := range tc.algos {
				_, err := SelfJoinStrings(texts, Options{Threshold: goldenTheta, Algorithm: a})
				refused(a.String(), err)
			}
			if tc.env == "FSJOIN_BITMAP" {
				sets := make([][]string, len(texts))
				for i, s := range texts {
					sets[i] = strings.Fields(s)
				}
				_, err := BuildIndex(NewDictionary().NewCollection(sets), IndexOptions{Threshold: goldenTheta})
				refused("BuildIndex", err)
			}
		})
	}
}
