package fsjoin

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"fsjoin/internal/frame"
	"fsjoin/internal/mapreduce"
)

// The suites of this file run joins over the filesystem shuffle transport
// (Options.FileShuffle, DESIGN.md §15) and hold them to the in-memory run.

// clusterDet is the deterministic slice of Stats a transport must not
// perturb.
type clusterDet struct {
	ShuffleRecords, ShuffleBytes, Candidates int64
	LoadImbalance                            float64
}

func clusterDetOf(s Stats) clusterDet {
	return clusterDet{s.ShuffleRecords, s.ShuffleBytes, s.Candidates, s.LoadImbalance}
}

func assertSamePairs(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatalf("%s: pairs diverge: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
}

// transportAlgos is the algorithm slice the transport suites cover:
// FS-Join plus two exact baselines, all three R-S-capable.
var transportAlgos = []struct {
	name string
	algo Algorithm
}{
	{"fs", FSJoin},
	{"ridpairs", RIDPairsPPJoin},
	{"vsmart", VSmartJoin},
}

// TestFileShuffleEquivalence proves Options.FileShuffle is invisible:
// pairs and deterministic statistics match the in-memory shuffle exactly,
// for every algorithm, self-joins and R-S joins alike. A file shuffle
// encodes every value a stage shuffles or outputs, so this is also the
// guard that each of them has a codec.
func TestFileShuffleEquivalence(t *testing.T) {
	texts := corpus(60, 7)
	cases := []struct {
		name string
		algo Algorithm
		rs   bool
	}{
		{"fs", FSJoin, false},
		{"fs-v", FSJoinV, false},
		{"ridpairs", RIDPairsPPJoin, false},
		{"vsmart", VSmartJoin, false},
		{"massjoin", MassJoinMerge, false},
		{"massjoin-light", MassJoinMergeLight, false},
		{"approx", ApproxLSHJoin, false},
		{"fs-rs", FSJoin, true},
		{"fs-v-rs", FSJoinV, true},
		{"ridpairs-rs", RIDPairsPPJoin, true},
		{"vsmart-rs", VSmartJoin, true},
		{"approx-rs", ApproxLSHJoin, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{Threshold: 0.7, Algorithm: c.algo, Nodes: 3}
			want, err := runMatrixJoin(texts, opt, c.rs)
			if err != nil {
				t.Fatalf("in-memory: %v", err)
			}
			opt.FileShuffle = true
			opt.SpillDir = t.TempDir()
			opt.LocalParallelism = 4
			got, err := runMatrixJoin(texts, opt, c.rs)
			if err != nil {
				t.Fatalf("file shuffle: %v", err)
			}
			assertSamePairs(t, "file shuffle", got, want)
			if d, w := clusterDetOf(got.Stats), clusterDetOf(want.Stats); d != w {
				t.Fatalf("file shuffle stats diverge: %+v, want %+v", d, w)
			}
		})
	}
}

// TestFileShuffleHonoursSpillDirEnv: with SpillDir unset, the frames go
// where spill runs go — FSJOIN_SPILL_DIR — not to the OS temp dir, and
// nothing is left there afterwards.
func TestFileShuffleHonoursSpillDirEnv(t *testing.T) {
	texts := corpus(40, 3)
	want, err := SelfJoinStrings(texts, Options{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()
	t.Setenv("FSJOIN_SPILL_DIR", spill)
	t.Setenv("TMPDIR", filepath.Join(spill, "missing"))
	got, err := SelfJoinStrings(texts, Options{Threshold: 0.7, FileShuffle: true})
	if err != nil {
		t.Fatalf("file shuffle under FSJOIN_SPILL_DIR: %v", err)
	}
	assertSamePairs(t, "file shuffle", got, want)
	if left, _ := os.ReadDir(spill); len(left) != 0 {
		t.Fatalf("%d entries left under FSJOIN_SPILL_DIR", len(left))
	}
}

// commitBoundaries split a FileShuffle join's frame writes by the commit
// they belong to, told apart by the first letter of the frame's file
// name: a map task's partitions and a task's final output.
var commitBoundaries = []struct {
	name string
	hit  func(frame string) bool
}{
	{"map", func(n string) bool { return n[0] == 'm' }},
	{"output", func(n string) bool { return n[0] == 'o' }},
}

// TestFileShuffleFailedCommit fails the n-th frame write at one commit
// boundary of a FileShuffle join at parallelism 4, for every n up to one
// past the run's last write there: a commit that cannot reach the disk must
// end the join with that error, and a run the failure never reaches must
// return the in-memory pairs. Either way nothing is left under SpillDir.
func TestFileShuffleFailedCommit(t *testing.T) {
	texts := corpus(60, 7)
	t.Cleanup(func() { frame.SetFailHook(nil) })
	errInjected := errors.New("injected frame write failure")
	for _, a := range transportAlgos {
		t.Run(a.name, func(t *testing.T) {
			base := Options{Threshold: 0.7, Algorithm: a.algo, Nodes: 3}
			want, err := SelfJoinStrings(texts, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range commitBoundaries {
				t.Run(b.name, func(t *testing.T) {
					// run joins over the file shuffle, failing the n-th write at
					// the boundary (never, for n = 0), and returns how many
					// writes there the hook saw.
					run := func(n int64) (*Result, int64, error) {
						var writes atomic.Int64
						frame.SetFailHook(func(op, name string) error {
							if op == "write" && b.hit(name) && writes.Add(1) == n {
								return errInjected
							}
							return nil
						})
						defer frame.SetFailHook(nil)
						opt := base
						opt.FileShuffle = true
						opt.SpillDir = t.TempDir()
						opt.LocalParallelism = 4
						res, err := SelfJoinStrings(texts, opt)
						if left, _ := os.ReadDir(opt.SpillDir); len(left) != 0 {
							t.Fatalf("write %d: %d entries left under SpillDir", n, len(left))
						}
						return res, writes.Load(), err
					}
					_, total, err := run(0)
					if err != nil || total == 0 {
						t.Fatalf("clean run: %d writes, err %v", total, err)
					}
					for n := int64(1); n <= total+1; n++ {
						got, _, err := run(n)
						switch {
						case n <= total && !errors.Is(err, errInjected):
							t.Fatalf("write %d of %d failed, join returned %v", n, total, err)
						case n > total && err != nil:
							t.Fatalf("no write failed, join returned %v", err)
						case n > total:
							assertSamePairs(t, "no write failed", got, want)
						}
					}
				})
			}
		})
	}
}

// countingInjector passes through the decisions of the injector it wraps
// and counts those that inject a fault, so a chaos suite can prove its
// schedules fired.
type countingInjector struct {
	mapreduce.Injector
	faults *atomic.Int64
}

func (c countingInjector) Decide(job string, phase mapreduce.Phase, task, attempt int) mapreduce.Fault {
	f := c.Injector.Decide(job, phase, task, attempt)
	if f.Kind != mapreduce.FaultNone {
		c.faults.Add(1)
	}
	return f
}

// TestChaosTransportEquivalence: seeded chaos schedules must leave pairs
// and deterministic statistics untouched at parallelism 1 and 4, on both
// the in-memory and the filesystem transport. Each algorithm must see
// injected faults, or the sweep proved nothing.
func TestChaosTransportEquivalence(t *testing.T) {
	texts := corpus(60, 7)
	for _, a := range transportAlgos {
		a := a
		t.Run(a.name, func(t *testing.T) {
			base := Options{Threshold: 0.7, Algorithm: a.algo, Nodes: 3}
			want, err := SelfJoinStrings(texts, base)
			if err != nil {
				t.Fatalf("fault-free: %v", err)
			}
			var faults atomic.Int64
			for i := 0; i < 4; i++ {
				for _, par := range []int{1, 4} {
					opt := base
					opt.LocalParallelism = par
					opt.FileShuffle = i%2 == 1
					opt.SpillDir = t.TempDir()
					opt.Fault.MaxAttempts = 4
					opt.Fault.injector = countingInjector{
						mapreduce.NewSeededPlan(mapreduce.PlanConfig{Seed: 8100 + int64(i)*1_000_003, TargetRate: 0.8}),
						&faults,
					}
					got, err := SelfJoinStrings(texts, opt)
					if err != nil {
						t.Fatalf("schedule %d par %d: %v", i, par, err)
					}
					assertSamePairs(t, "chaos", got, want)
					if d, w := clusterDetOf(got.Stats), clusterDetOf(want.Stats); d != w {
						t.Fatalf("schedule %d par %d stats diverge: %+v, want %+v", i, par, d, w)
					}
				}
			}
			if faults.Load() == 0 {
				t.Fatal("chaos schedules injected no fault")
			}
		})
	}
}
