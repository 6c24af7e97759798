package fsjoin

import (
	"os"
	"reflect"
	"testing"
)

// TestMain hands the process over to the clustered-join worker loop when
// the test binary was re-executed as a worker (clustered runs re-execute
// the calling binary); without it every spawned worker would re-enter the
// test runner.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// clusterDet is the deterministic slice of Stats a transport or worker
// count must not perturb.
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

// clusterAlgos is the algorithm slice the multi-process acceptance suite
// covers: FS-Join plus two exact baselines.
var clusterAlgos = []struct {
	name string
	algo Algorithm
}{
	{"fs", FSJoin},
	{"ridpairs", RIDPairsPPJoin},
	{"vsmart", VSmartJoin},
}

// TestFileShuffleEquivalence proves Options.FileShuffle — the filesystem
// shuffle transport under a single process — is invisible: pairs and
// deterministic statistics match the in-memory shuffle exactly.
func TestFileShuffleEquivalence(t *testing.T) {
	texts := corpus(60, 7)
	for _, a := range append(clusterAlgos, struct {
		name string
		algo Algorithm
	}{"massjoin", MassJoinMerge}) {
		t.Run(a.name, func(t *testing.T) {
			opt := Options{Threshold: 0.7, Algorithm: a.algo, Nodes: 3}
			want, err := SelfJoinStrings(texts, opt)
			if err != nil {
				t.Fatalf("in-memory: %v", err)
			}
			opt.FileShuffle = true
			opt.SpillDir = t.TempDir()
			opt.LocalParallelism = 4
			got, err := SelfJoinStrings(texts, opt)
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

// TestChaosTransportEquivalence is the seeded-chaos face of the delivery
// contract: schedules that mix worker-loss reassignments and duplicate
// partition deliveries into the ordinary fault kinds must leave pairs and
// deterministic statistics untouched at parallelism 1 and 4, on both the
// in-memory and the filesystem transport.
func TestChaosTransportEquivalence(t *testing.T) {
	texts := corpus(60, 7)
	var reassigned, redelivered int64
	for _, a := range clusterAlgos {
		a := a
		t.Run(a.name, func(t *testing.T) {
			base := Options{Threshold: 0.7, Algorithm: a.algo, Nodes: 3}
			want, err := SelfJoinStrings(texts, base)
			if err != nil {
				t.Fatalf("fault-free: %v", err)
			}
			for i := 0; i < 4; i++ {
				for _, par := range []int{1, 4} {
					opt := base
					opt.LocalParallelism = par
					opt.FileShuffle = i%2 == 1
					opt.SpillDir = t.TempDir()
					opt.Fault.MaxAttempts = 4
					opt.Fault.ChaosSeed = 8100 + int64(i)*1_000_003
					opt.Fault.ChaosIntensity = 0.8
					opt.Fault.ChaosTransportFaults = true
					got, err := SelfJoinStrings(texts, opt)
					if err != nil {
						t.Fatalf("schedule %d par %d: %v", i, par, err)
					}
					assertSamePairs(t, "chaos", got, want)
					if d, w := clusterDetOf(got.Stats), clusterDetOf(want.Stats); d != w {
						t.Fatalf("schedule %d par %d stats diverge: %+v, want %+v", i, par, d, w)
					}
					reassigned += got.Stats.TasksReassigned
					redelivered += got.Stats.PartitionsRedelivered
				}
			}
		})
	}
	if reassigned == 0 || redelivered == 0 {
		t.Fatalf("chaos schedules proved nothing: reassigned=%d redelivered=%d", reassigned, redelivered)
	}
}

// TestMultiprocessEquivalence proves Workers ≥ 2 — real supervised worker
// processes over the filesystem transport — is invisible: pairs and
// deterministic statistics match the in-process run for self-joins and
// R-S joins alike.
func TestMultiprocessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	texts := corpus(60, 7)
	cases := []struct {
		name string
		algo Algorithm
		rs   bool
	}{
		{"fs", FSJoin, false},
		{"ridpairs", RIDPairsPPJoin, false},
		{"vsmart", VSmartJoin, false},
		{"fs-rs", FSJoin, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opt := Options{Threshold: 0.7, Algorithm: c.algo, Nodes: 3}
			want, err := runMatrixJoin(texts, opt, c.rs)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			opt.Workers = 2
			got, err := runMatrixJoin(texts, opt, c.rs)
			if err != nil {
				t.Fatalf("clustered: %v", err)
			}
			assertSamePairs(t, "clustered", got, want)
			if d, w := clusterDetOf(got.Stats), clusterDetOf(want.Stats); d != w {
				t.Fatalf("clustered stats diverge: %+v, want %+v", d, w)
			}
			if got.Stats.Workers != 2 {
				t.Fatalf("Stats.Workers = %d, want 2", got.Stats.Workers)
			}
			if got.Stats.TransportHeartbeats == 0 {
				t.Fatal("no heartbeats recorded — supervisor never saw the workers")
			}
			if got.Stats.WorkerDeaths != 0 {
				t.Fatalf("unexpected worker deaths: %d", got.Stats.WorkerDeaths)
			}
		})
	}
}

// TestWorkerKillRecovery is the worker-kill acceptance harness: SIGKILL
// one of two workers at each injected boundary — mid-map, at the shuffle
// hand-off, and mid-reduce — and demand the surviving run produce pairs
// byte-identical to the in-process run, deterministic statistics
// identical to an unharmed clustered run, and supervision counters that
// prove the recovery actually happened.
func TestWorkerKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	texts := corpus(60, 7)
	boundaries := []string{"0:map:1", "0:handoff:1", "0:reduce:1"}
	for _, a := range clusterAlgos {
		a := a
		t.Run(a.name, func(t *testing.T) {
			opt := Options{Threshold: 0.7, Algorithm: a.algo, Nodes: 3}
			want, err := SelfJoinStrings(texts, opt)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			opt.Workers = 2
			clean, err := SelfJoinStrings(texts, opt)
			if err != nil {
				t.Fatalf("clustered baseline: %v", err)
			}
			for _, spec := range boundaries {
				t.Run(spec, func(t *testing.T) {
					t.Setenv("FSJOIN_KILL_WORKER", spec)
					got, err := SelfJoinStrings(texts, opt)
					if err != nil {
						t.Fatalf("killed run: %v", err)
					}
					assertSamePairs(t, "killed run", got, want)
					if d, w := clusterDetOf(got.Stats), clusterDetOf(clean.Stats); d != w {
						t.Fatalf("killed-run stats diverge: %+v, want %+v", d, w)
					}
					if got.Stats.WorkerDeaths < 1 {
						t.Fatal("worker survived the injected SIGKILL — harness proves nothing")
					}
					if got.Stats.TasksReassigned == 0 {
						t.Fatal("no task reassigned after the kill — lease recovery never ran")
					}
				})
			}
		})
	}
}

// TestClusterRejections pins the option combinations a clustered run must
// refuse rather than silently change semantics: every clusterRejections
// entry has a trigger here and is refused.
func TestClusterRejections(t *testing.T) {
	texts := corpus(12, 3)
	triggers := map[string]func(*Options){
		"CheckpointDir":          func(o *Options) { o.CheckpointDir = t.TempDir() },
		"Fault.injector":         func(o *Options) { o.Fault.injector = &jobRecorder{} },
		"Fault.OnQuarantine":     func(o *Options) { o.Fault.OnQuarantine = func(QuarantinedRecord) {} },
		"Fault.SpeculativeDelay": func(o *Options) { o.Fault.SpeculativeDelay = 1 },
	}
	for _, rej := range clusterRejections {
		trigger, ok := triggers[rej.name]
		if !ok {
			t.Fatalf("rejection %s has no trigger in this test", rej.name)
		}
		opt := Options{Threshold: 0.7, Algorithm: FSJoin, Workers: 2}
		trigger(&opt)
		if _, err := SelfJoinStrings(texts, opt); err == nil {
			t.Fatalf("%s with Workers > 1 not rejected", rej.name)
		}
	}
}
