package fsjoin

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The golden fixture pins the exact result set of a committed corpus so
// any regression — a changed pair, a drifted similarity score, a float
// formatting change — shows up as a readable diff against
// testdata/golden/pairs.txt. Regenerate with:
//
//	go test -run TestGolden -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from a reference run")

const (
	goldenTexts = "testdata/golden/texts.txt"
	goldenPairs = "testdata/golden/pairs.txt"
	goldenTheta = 0.7
)

// formatSim renders a similarity with full round-trip precision; golden
// comparison is on this exact string, i.e. bit-equality of the float.
func formatSim(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

func formatPairs(pairs []Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("%d %d %d %s", p.A, p.B, p.Common, formatSim(p.Similarity))
	}
	return out
}

func loadGolden(t *testing.T) (texts, pairs []string) {
	t.Helper()
	if *updateGolden {
		writeGolden(t)
	}
	raw, err := os.ReadFile(goldenTexts)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	texts = strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	raw, err = os.ReadFile(goldenPairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			pairs = append(pairs, line)
		}
	}
	return texts, pairs
}

// writeGolden regenerates both fixture files: the corpus (only if absent,
// so the committed dataset stays stable) and the expected pairs from a
// sequential fault-free FS-Join reference run.
func writeGolden(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenTexts), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(goldenTexts); os.IsNotExist(err) {
		texts := corpus(48, 3)
		if err := os.WriteFile(goldenTexts, []byte(strings.Join(texts, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenTexts)
	if err != nil {
		t.Fatal(err)
	}
	texts := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	res, err := SelfJoinStrings(texts, Options{Threshold: goldenTheta, LocalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) < 10 {
		t.Fatalf("reference run found only %d pairs — fixture too sparse to pin anything", len(res.Pairs))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# fs-join self-join golden pairs: theta=%v, word tokens, one \"A B Common Sim\" per line\n", goldenTheta)
	for _, line := range formatPairs(res.Pairs) {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(goldenPairs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func diffPairs(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, golden has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %q, golden %q", label, i, got[i], want[i])
		}
	}
}

// TestGoldenAllAlgorithms runs every exact algorithm at several
// parallelism levels against the committed fixture. Scores are compared
// as full-precision strings, so all implementations must agree bit-for-bit.
func TestGoldenAllAlgorithms(t *testing.T) {
	texts, want := loadGolden(t)
	for _, algo := range []Algorithm{
		FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight,
	} {
		for _, par := range []int{1, 4, 0} {
			res, err := SelfJoinStrings(texts, Options{
				Threshold: goldenTheta, Algorithm: algo, LocalParallelism: par,
			})
			if err != nil {
				t.Fatalf("%v par %d: %v", algo, par, err)
			}
			diffPairs(t, fmt.Sprintf("%v par %d", algo, par), formatPairs(res.Pairs), want)
		}
	}
}

// TestGoldenMemoryBudgets: every exact algorithm, run through the
// spillable shuffle at tiny budgets, must reproduce the golden pairs
// bit-for-bit — same pairs, same counts, same full-precision scores — at
// parallelism 1 and 4, leaving no spill files behind. (The committed
// corpus is small; TestBudgetEquivalenceLargeCorpus is the companion that
// forces real spilling.)
func TestGoldenMemoryBudgets(t *testing.T) {
	texts, want := loadGolden(t)
	budgets := []int64{-1, 64 << 10, 4 << 10} // unbounded, 64 KiB, 4 KiB
	for _, algo := range []Algorithm{
		FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight,
	} {
		for _, budget := range budgets {
			for _, par := range []int{1, 4} {
				dir := t.TempDir()
				res, err := SelfJoinStrings(texts, Options{
					Threshold: goldenTheta, Algorithm: algo, LocalParallelism: par,
					MemoryBudget: budget, SpillDir: dir,
				})
				label := fmt.Sprintf("%v budget %d par %d", algo, budget, par)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				diffPairs(t, label, formatPairs(res.Pairs), want)
				if budget < 0 && res.Stats.SpillRuns != 0 {
					t.Fatalf("%s: unbounded run reported %d spill runs", label, res.Stats.SpillRuns)
				}
				if res.Stats.SpillRuns > 0 && res.Stats.SpillBytes == 0 {
					t.Fatalf("%s: spill runs without spill bytes", label)
				}
				if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
					t.Fatalf("%s: spill files leaked: %v (err %v)", label, ents, err)
				}
			}
		}
	}
}

// TestBudgetEquivalenceLargeCorpus forces the out-of-core path for real: a
// corpus big enough that a small budget writes multiple sorted runs, for
// every exact algorithm and join method, compared bit-for-bit against the
// unbounded reference at parallelism 1 and 4. The 1 KiB budget is chosen
// to bind for every algorithm, including the shuffle-light ones.
func TestBudgetEquivalenceLargeCorpus(t *testing.T) {
	texts := corpus(400, 11)
	const theta = 0.7
	check := func(label string, opt Options) {
		t.Helper()
		ref, err := SelfJoinStrings(texts, Options{
			Threshold: theta, Algorithm: opt.Algorithm, JoinMethod: opt.JoinMethod,
			LocalParallelism: 1,
		})
		if err != nil {
			t.Fatalf("%s reference: %v", label, err)
		}
		want := formatPairs(ref.Pairs)
		if len(want) == 0 {
			t.Fatalf("%s: reference found no pairs — corpus too sparse to test anything", label)
		}
		for _, par := range []int{1, 4} {
			dir := t.TempDir()
			opt.Threshold = theta
			opt.LocalParallelism = par
			opt.MemoryBudget = 1 << 10
			opt.SpillDir = dir
			res, err := SelfJoinStrings(texts, opt)
			if err != nil {
				t.Fatalf("%s par %d: %v", label, par, err)
			}
			diffPairs(t, fmt.Sprintf("%s par %d", label, par), formatPairs(res.Pairs), want)
			if res.Stats.SpillRuns < 2 {
				t.Fatalf("%s par %d: only %d spill runs — budget not binding", label, par, res.Stats.SpillRuns)
			}
			if res.Stats.ShufflePeakBytes == 0 {
				t.Fatalf("%s par %d: no shuffle peak recorded", label, par)
			}
			if res.Stats.ShuffleRecords != ref.Stats.ShuffleRecords ||
				res.Stats.ShuffleBytes != ref.Stats.ShuffleBytes {
				t.Fatalf("%s par %d: shuffle accounting drifted: (%d,%d) vs (%d,%d)",
					label, par, res.Stats.ShuffleRecords, res.Stats.ShuffleBytes,
					ref.Stats.ShuffleRecords, ref.Stats.ShuffleBytes)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("%s par %d: spill files leaked: %v (err %v)", label, par, ents, err)
			}
		}
	}
	for _, algo := range []Algorithm{
		FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight,
	} {
		check(algo.String(), Options{Algorithm: algo})
	}
	for _, jm := range []JoinMethod{IndexJoin, LoopJoin} { // PrefixJoin covered above
		check(fmt.Sprintf("fs-join method %d", jm), Options{JoinMethod: jm})
	}
}

// goldenStats pins the accounted shuffle of every algorithm on the golden
// corpus: one line per algorithm, self-join or R-S, and memory budget.
// Regenerate with:
//
//	go test -run TestGoldenStats -update-golden .
const goldenStats = "testdata/golden/stats.txt"

// goldenSpillBudget is small enough that every row of the table spills.
const goldenSpillBudget = 128

// readLines returns a fixture file's lines.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}

// TestGoldenStats: the counters the cost model reads — shuffle records and
// bytes, load imbalance, candidates, spill runs, spill bytes and the shuffle
// peak — are those pinned in testdata/golden/stats.txt, exactly, at
// parallelism 1 and 4, unbounded and under a budget every row spills at.
// A drift in any value's accounted size moves a byte total here. The bitmap
// filter is pinned on and the budgets are explicit, so no test switch in
// the environment moves a row.
func TestGoldenStats(t *testing.T) {
	t.Setenv("FSJOIN_BITMAP", "on")
	texts, queries := readLines(t, goldenTexts), readLines(t, goldenRSQueries)
	var got []string
	for _, algo := range []Algorithm{
		FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin, MassJoinMerge, MassJoinMergeLight, ApproxLSHJoin,
	} {
		for _, rs := range []bool{false, true} {
			if rs && (algo == MassJoinMerge || algo == MassJoinMergeLight) {
				continue
			}
			for _, budget := range []int64{-1, goldenSpillBudget} {
				label := fmt.Sprintf("%v self budget=%d", algo, budget)
				if rs {
					label = fmt.Sprintf("%v rs budget=%d", algo, budget)
				}
				var line string
				for _, par := range []int{1, 4} {
					opt := Options{
						Threshold: goldenTheta, Algorithm: algo, LocalParallelism: par,
						MemoryBudget: budget, SpillDir: t.TempDir(),
					}
					var res *Result
					var err error
					if rs {
						res, err = JoinStrings(queries, texts, opt)
					} else {
						res, err = SelfJoinStrings(texts, opt)
					}
					if err != nil {
						t.Fatalf("%s par %d: %v", label, par, err)
					}
					s := res.Stats
					if budget > 0 && s.SpillRuns == 0 {
						t.Fatalf("%s par %d: the budget did not spill", label, par)
					}
					l := fmt.Sprintf("%s records=%d bytes=%d imbalance=%s candidates=%d spill_runs=%d spill_bytes=%d peak=%d",
						label, s.ShuffleRecords, s.ShuffleBytes, formatSim(s.LoadImbalance), s.Candidates,
						s.SpillRuns, s.SpillBytes, s.ShufflePeakBytes)
					if par == 1 {
						line = l
					} else if l != line {
						t.Fatalf("par %d differs from par 1:\n%s\n%s", par, l, line)
					}
				}
				got = append(got, line)
			}
		}
	}
	if *updateGolden {
		header := fmt.Sprintf("# accounted shuffle per algorithm on texts.txt (self) and rs_queries.txt x texts.txt (rs), theta=%v, FSJOIN_BITMAP=on\n", goldenTheta)
		if err := os.WriteFile(goldenStats, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, line := range readLines(t, goldenStats) {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestGoldenJoinMethods covers FS-Join's three fragment-join kernels —
// all must reproduce the golden pairs exactly.
func TestGoldenJoinMethods(t *testing.T) {
	texts, want := loadGolden(t)
	for _, jm := range []JoinMethod{PrefixJoin, IndexJoin, LoopJoin} {
		for _, par := range []int{1, 4} {
			res, err := SelfJoinStrings(texts, Options{
				Threshold: goldenTheta, JoinMethod: jm, LocalParallelism: par,
			})
			if err != nil {
				t.Fatalf("method %v par %d: %v", jm, par, err)
			}
			diffPairs(t, fmt.Sprintf("method %v par %d", jm, par), formatPairs(res.Pairs), want)
		}
	}
}

// TestGoldenApproxPrecision: the LSH join may miss pairs (recall follows
// the S-curve) but every pair it reports must appear in the golden set
// with an identical score — perfect precision.
func TestGoldenApproxPrecision(t *testing.T) {
	texts, want := loadGolden(t)
	golden := make(map[string]bool, len(want))
	for _, line := range want {
		golden[line] = true
	}
	res, err := SelfJoinStrings(texts, Options{
		Threshold: goldenTheta, Algorithm: ApproxLSHJoin, LocalParallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range formatPairs(res.Pairs) {
		if !golden[line] {
			t.Fatalf("approx join reported %q, not in the golden set", line)
		}
	}
	if len(res.Pairs) == 0 {
		t.Fatal("approx join found nothing — fixture defeats the S-curve entirely")
	}
}
