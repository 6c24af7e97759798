package fsjoin

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"fsjoin/internal/mapreduce"
)

// seededChaos injects the seeded schedule mapreduce.NewSeededPlan builds
// for seed at rate (the fraction of (phase, task) pairs it targets; 0
// means 0.3) into every task attempt, through the unexported test hook.
// Two runs with equal arguments inject identical schedules.
func seededChaos(seed int64, rate float64) FaultOptions {
	return FaultOptions{injector: mapreduce.NewSeededPlan(mapreduce.PlanConfig{Seed: seed, TargetRate: rate})}
}

// chaosSeed is the seed of schedule i of the chaos matrix.
func chaosSeed(i int) int64 { return 9000 + int64(i)*1_000_003 }

// chaosSchedules is the top-level chaos matrix: 28 seeded fault schedules
// (each mixing panics, transient errors, emit-phase failures and
// straggler delays across map, combine and reduce tasks) derived from the
// schedule index alone, so any failure is re-runnable from its seed. The
// derivation cycles intensity through {0.2, 0.35, 0.5, 0.8}.
func chaosSchedules(n int) []FaultOptions {
	out := make([]FaultOptions, n)
	for i := range out {
		f := seededChaos(chaosSeed(i), []float64{0.2, 0.35, 0.5, 0.8}[i%4])
		f.MaxAttempts = 4
		out[i] = f
	}
	return out
}

// TestChaosEquivalenceAllAlgorithms runs the full 3-phase FS-Join
// pipeline and every baseline under the chaos matrix at parallelism 4
// (and, for a third of the schedules, sequentially) and asserts pairs and
// every deterministic statistic are byte-identical to the fault-free run.
// Under -race this doubles as a concurrency audit of the retry and
// injection paths.
func TestChaosEquivalenceAllAlgorithms(t *testing.T) {
	texts := corpus(60, 7)
	schedules := chaosSchedules(28)
	type detStats struct {
		ShuffleRecords, ShuffleBytes, Candidates int64
		LoadImbalance                            float64
	}
	det := func(s Stats) detStats {
		return detStats{
			ShuffleRecords: s.ShuffleRecords, ShuffleBytes: s.ShuffleBytes,
			Candidates: s.Candidates, LoadImbalance: s.LoadImbalance,
		}
	}
	for _, algo := range []Algorithm{FSJoin, RIDPairsPPJoin, VSmartJoin, MassJoinMerge} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			opts := Options{Threshold: 0.7, Algorithm: algo, Nodes: 3, LocalParallelism: 1}
			want, err := SelfJoinStrings(texts, opts)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if algo == FSJoin && len(want.Pairs) == 0 {
				t.Fatal("fault-free run found no pairs — corpus too sparse to prove anything")
			}
			for i, fault := range schedules {
				pars := []int{4}
				if i%3 == 0 {
					pars = []int{1, 4}
				}
				for _, par := range pars {
					opts.LocalParallelism = par
					opts.Fault = fault
					got, err := SelfJoinStrings(texts, opts)
					if err != nil {
						t.Fatalf("schedule %d (seed %d) par %d: %v", i, chaosSeed(i), par, err)
					}
					if !reflect.DeepEqual(got.Pairs, want.Pairs) {
						t.Fatalf("schedule %d (seed %d) par %d: pairs differ (%d vs %d)",
							i, chaosSeed(i), par, len(got.Pairs), len(want.Pairs))
					}
					if g, w := det(got.Stats), det(want.Stats); g != w {
						t.Fatalf("schedule %d (seed %d) par %d: stats differ\n got %+v\nwant %+v",
							i, chaosSeed(i), par, g, w)
					}
				}
			}
		})
	}
}

// TestChaosEquivalenceRS runs the R-S join paths (two halves of the
// corpus as R and S, overlapping rid spaces) under ten chaos schedules at
// parallelism 4 (and, for a third of them, sequentially) and asserts
// pairs, deterministic statistics and the rs.pairs.* counters are
// byte-identical to the fault-free run.
func TestChaosEquivalenceRS(t *testing.T) {
	texts := corpus(60, 7)
	type detStats struct {
		ShuffleRecords, ShuffleBytes, Candidates int64
		RSCandidates, RSPairs                    int64
	}
	det := func(s Stats) detStats {
		return detStats{
			ShuffleRecords: s.ShuffleRecords, ShuffleBytes: s.ShuffleBytes,
			Candidates: s.Candidates, RSCandidates: s.RSCandidates, RSPairs: s.RSPairs,
		}
	}
	for _, algo := range []Algorithm{FSJoin, RIDPairsPPJoin, VSmartJoin} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			opts := Options{Threshold: 0.7, Algorithm: algo, Nodes: 3, LocalParallelism: 1}
			want, err := runMatrixJoin(texts, opts, true)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if algo == FSJoin && len(want.Pairs) == 0 {
				t.Fatal("fault-free run found no pairs — corpus too sparse to prove anything")
			}
			for i, fault := range chaosSchedules(10) {
				pars := []int{4}
				if i%3 == 0 {
					pars = []int{1, 4}
				}
				for _, par := range pars {
					opts.LocalParallelism = par
					opts.Fault = fault
					got, err := runMatrixJoin(texts, opts, true)
					if err != nil {
						t.Fatalf("schedule %d (seed %d) par %d: %v", i, chaosSeed(i), par, err)
					}
					if !reflect.DeepEqual(got.Pairs, want.Pairs) {
						t.Fatalf("schedule %d (seed %d) par %d: pairs differ (%d vs %d)",
							i, chaosSeed(i), par, len(got.Pairs), len(want.Pairs))
					}
					if g, w := det(got.Stats), det(want.Stats); g != w {
						t.Fatalf("schedule %d (seed %d) par %d: stats differ\n got %+v\nwant %+v",
							i, chaosSeed(i), par, g, w)
					}
				}
			}
		})
	}
}

// noSpillFiles asserts dir is empty. Every failed attempt is discarded
// before the job returns, so the check is made once, at return.
func noSpillFiles(t *testing.T, label, dir string) {
	t.Helper()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) > 0 {
		t.Fatalf("%s: spill files leaked: %v (read err %v)", label, ents, err)
	}
}

// TestChaosTinyBudgetEquivalence crosses the chaos matrix with the
// out-of-core shuffle: ten seeded fault schedules, a 1 KiB memory budget
// that provably spills, parallelism 1 and 4. Every run must reproduce the
// fault-free unbounded pairs and shuffle accounting byte-for-byte, and
// every spill directory must be empty when the join returns, even when
// attempts were retried mid-spill.
func TestChaosTinyBudgetEquivalence(t *testing.T) {
	texts := corpus(200, 7)
	base := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	want, err := SelfJoinStrings(texts, base)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if len(want.Pairs) == 0 {
		t.Fatal("fault-free run found no pairs — corpus too sparse to prove anything")
	}

	// Fault-free budgeted probe: the budget must actually bind on this
	// corpus, otherwise the chaos sweep below exercises nothing new.
	probe := base
	probe.MemoryBudget = 1 << 10
	probe.SpillDir = t.TempDir()
	pres, err := SelfJoinStrings(texts, probe)
	if err != nil {
		t.Fatalf("budgeted probe: %v", err)
	}
	if pres.Stats.SpillRuns < 2 {
		t.Fatalf("budgeted probe spilled only %d runs — budget not binding", pres.Stats.SpillRuns)
	}

	for i, fault := range chaosSchedules(10) {
		for _, par := range []int{1, 4} {
			dir := t.TempDir()
			opts := base
			opts.LocalParallelism = par
			opts.MemoryBudget = 1 << 10
			opts.SpillDir = dir
			opts.Fault = fault
			got, err := SelfJoinStrings(texts, opts)
			label := fmt.Sprintf("schedule %d", i)
			if err != nil {
				t.Fatalf("%s (seed %d) par %d: %v", label, chaosSeed(i), par, err)
			}
			if !reflect.DeepEqual(got.Pairs, want.Pairs) {
				t.Fatalf("%s (seed %d) par %d: pairs differ (%d vs %d)",
					label, chaosSeed(i), par, len(got.Pairs), len(want.Pairs))
			}
			if got.Stats.ShuffleRecords != want.Stats.ShuffleRecords ||
				got.Stats.ShuffleBytes != want.Stats.ShuffleBytes {
				t.Fatalf("%s (seed %d) par %d: shuffle accounting drifted: (%d,%d) vs (%d,%d)",
					label, chaosSeed(i), par,
					got.Stats.ShuffleRecords, got.Stats.ShuffleBytes,
					want.Stats.ShuffleRecords, want.Stats.ShuffleBytes)
			}
			noSpillFiles(t, label, dir)
		}
	}
}

// TestChaosSeedReproducible: the same seed injects the same schedule
// — two chaotic runs agree with each other (and, transitively through the
// equivalence test above, with the fault-free run).
func TestChaosSeedReproducible(t *testing.T) {
	texts := corpus(50, 11)
	opts := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1,
		Fault: seededChaos(424242, 0.8)}
	a, err := SelfJoinStrings(texts, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelfJoinStrings(texts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Pairs, b.Pairs) || a.Stats.ShuffleRecords != b.Stats.ShuffleRecords {
		t.Fatal("identical chaos seeds produced different runs")
	}
}

// TestChaosRetryBudgetExhaustion: with MaxAttempts 1 the engine may not
// retry, so a crash-injecting schedule must surface as a job error — the
// injected fault message intact — rather than wrong output.
func TestChaosRetryBudgetExhaustion(t *testing.T) {
	texts := corpus(50, 11)
	want, err := SelfJoinStrings(texts, Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for seed := int64(1); seed <= 10 && !failed; seed++ {
		fault := seededChaos(seed, 0.9)
		fault.MaxAttempts = 1
		res, err := SelfJoinStrings(texts, Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1, Fault: fault})
		if err != nil {
			failed = true
			continue
		}
		// A schedule that happened to only inject delays still succeeds —
		// output must then be exact.
		if !reflect.DeepEqual(res.Pairs, want.Pairs) {
			t.Fatalf("seed %d: survived with wrong output", seed)
		}
	}
	if !failed {
		t.Fatal("no schedule aborted under MaxAttempts 1 at intensity 0.9 — injection inert")
	}
}
