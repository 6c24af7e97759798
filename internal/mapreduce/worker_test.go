package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// distRun executes run as nWorkers in-process WorkerClients plus the
// driver, each handed its own Runtime over one shared FSTransport
// directory, and returns the driver's Result. mutateWorker lets a test
// sabotage one worker's run (to simulate death) — it receives the worker
// id and the dialed client before the run starts.
func distRun(t *testing.T, nWorkers int, mutateWorker func(id int, w *WorkerClient), run func(rt Runtime) (*Result, error)) (*Result, *Supervisor) {
	t.Helper()
	dir := t.TempDir()
	sup, err := StartSupervisor(SupervisorConfig{
		Dir:              dir,
		LeaseDuration:    300 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		ReassignBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	// Each participant opens its own transport over the shared directory,
	// as separate processes would: stage sequence numbers are per handle,
	// and keep=true stops an early finisher from deleting frames that
	// slower participants still read during Result assembly.
	runOne := func(w *WorkerClient) (*Result, error) {
		return run(Runtime{Transport: NewFSTransport(dir, true), Executor: w})
	}
	var wg sync.WaitGroup
	for id := 0; id < nWorkers; id++ {
		w, err := DialWorker(sup.Addr(), id, "")
		if err != nil {
			t.Fatal(err)
		}
		if mutateWorker != nil {
			mutateWorker(id, w)
		}
		wg.Add(1)
		// Stagger the starts so grants land in worker order — the death
		// test relies on worker 0 holding the first lease.
		go func(id int, w *WorkerClient) {
			defer wg.Done()
			time.Sleep(time.Duration(id) * 10 * time.Millisecond)
			if _, err := runOne(w); err == nil {
				w.Close() // graceful exit only on success
			} else {
				t.Logf("worker %d: %v", id, err)
			}
		}(id, w)
	}
	driver, err := DialWorker(sup.Addr(), driverWorkerID, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(driver)
	if err != nil {
		t.Fatal(err)
	}
	// Clients beat every 20 ms and a small run can finish sooner: hold the
	// driver's connection open for its first beat, so every run can be
	// asked to have shown a live heartbeat stream.
	for deadline := time.Now().Add(2 * time.Second); sup.Counters().Heartbeats == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	driver.Close()
	wg.Wait()
	return res, sup
}

// distFixture is distRun over one wordcount.
func distFixture(t *testing.T, nWorkers int, input []KV, mutateWorker func(id int, w *WorkerClient)) (*Result, *Supervisor) {
	t.Helper()
	return distRun(t, nWorkers, mutateWorker, func(rt Runtime) (*Result, error) {
		cfg := Config{Name: "wc-dist", Cluster: tinyCluster(), MapTasks: 4, Runtime: rt}
		return Run(cfg, input, wcMapper{}, wcReducer{})
	})
}

// lineCountingWC is wordcount that also counts its input lines, so a user
// counter travels with every map task.
type lineCountingWC struct{ wcMapper }

func (m lineCountingWC) Map(ctx *Context, kv KV) {
	ctx.Inc("wc.lines", 1)
	m.wcMapper.Map(ctx, kv)
}

// TestDistributedMatchesLocal proves the one driver end to end: whoever
// schedules the tasks — this process on the in-memory transport, or three
// leased WorkerClients over a shared FSTransport with a driver that
// executes nothing — the assembled Result is the same in output, in
// counters and in every metric that is not a measured duration.
func TestDistributedMatchesLocal(t *testing.T) {
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("d%d x y shared d%d u%d", i%9, i%4, i))
	}
	input := wcInput(lines...)
	jobs := []struct {
		name     string
		combiner Folder
		reducer  Reducer
	}{
		{"plain", nil, wcReducer{}},
		{"folding", foldSum{}, foldSum{}},
		{"map-only", nil, nil},
	}
	// untimed blanks the metrics that are, or derive from, measured task
	// durations.
	untimed := func(m Metrics) Metrics {
		m.MapTaskTime, m.ReduceTaskTime = nil, nil
		m.SimulatedMapTime, m.SimulatedReduce, m.SimulatedTotalTime, m.WallTime = 0, 0, 0, 0
		return m
	}
	for _, job := range jobs {
		for _, budget := range []int64{-1, 1024} {
			t.Run(fmt.Sprintf("%s/budget=%d", job.name, budget), func(t *testing.T) {
				run := func(rt Runtime) (*Result, error) {
					cfg := Config{Name: "wc-dist", Cluster: tinyCluster(), MapTasks: 4,
						Combiner: job.combiner, MemoryBudgetBytes: budget, SpillDir: t.TempDir(), Runtime: rt}
					return Run(cfg, input, lineCountingWC{}, job.reducer)
				}
				local, err := run(Runtime{})
				if err != nil {
					t.Fatal(err)
				}
				dist, sup := distRun(t, 3, nil, run)
				if !reflect.DeepEqual(local.Output, dist.Output) {
					t.Fatalf("distributed output differs from local: %d vs %d records", len(local.Output), len(dist.Output))
				}
				if lc, dc := local.Counters.Snapshot(), dist.Counters.Snapshot(); !reflect.DeepEqual(lc, dc) {
					t.Fatalf("counters differ:\nlocal %v\ndist  %v", lc, dc)
				}
				if lm, dm := untimed(local.Metrics), untimed(dist.Metrics); !reflect.DeepEqual(lm, dm) {
					t.Fatalf("metrics differ:\nlocal %+v\ndist  %+v", lm, dm)
				}
				if len(dist.Metrics.MapTaskTime) != 4 || len(dist.Metrics.ReduceTaskTime) != dist.Metrics.ReduceTasks {
					t.Fatalf("task times: %d map, %d reduce", len(dist.Metrics.MapTaskTime), len(dist.Metrics.ReduceTaskTime))
				}
				if got := local.Counters.Get("wc.lines"); got != int64(len(lines)) {
					t.Fatalf("wc.lines = %d, want %d", got, len(lines))
				}
				if spilled := local.Counters.Get(CounterSpillRuns) > 0; spilled != (budget > 0 && job.reducer != nil) {
					t.Fatalf("budget %d: spill.runs = %d", budget, local.Counters.Get(CounterSpillRuns))
				}
				if got := sup.Counters(); got.Heartbeats == 0 {
					t.Fatal("supervisor saw no heartbeats")
				}
			})
		}
	}
}

// TestDistributedSurvivesWorkerDeath kills one worker's control
// connection mid-run (EOF without bye — exactly what SIGKILL produces)
// and proves the survivors absorb its leases: output stays byte-identical
// and the supervisor counts the death and the reassignments.
func TestDistributedSurvivesWorkerDeath(t *testing.T) {
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("d%d x y shared d%d", i%9, i%4))
	}
	input := wcInput(lines...)
	local, err := Run(Config{Name: "wc-dist", Cluster: tinyCluster(), MapTasks: 4}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 "dies" at its first map boundary: the boundary hook drops
	// both connections without a bye, so its granted lease is mid-flight.
	dist, sup := distFixture(t, 2, input, func(id int, w *WorkerClient) {
		if id != 0 {
			return
		}
		w.kill = killSpec{kind: "map", n: 1}
		// Replace the SIGKILL with a connection drop so the test stays
		// in-process: from the supervisor's view the two are identical.
		// The goroutine ends there as the process would: a worker that ran
		// on would commit beside the survivor under the pid they share
		// here, and their temp files collide.
		w.die = func() {
			w.conn.Close()
			w.beat.Close()
			runtime.Goexit()
		}
	})
	if !reflect.DeepEqual(local.Output, dist.Output) {
		t.Fatal("output differs after worker death")
	}
	got := sup.Counters()
	if got.WorkerDeaths == 0 {
		t.Fatal("supervisor counted no worker deaths")
	}
	if got.TasksReassigned == 0 {
		t.Fatal("supervisor counted no task reassignments")
	}
}

// TestSupervisorRejectsDivergentPhase proves the SPMD announce contract:
// a participant announcing a different (job, phase, n) for the same
// sequence number aborts the run instead of corrupting it.
func TestSupervisorRejectsDivergentPhase(t *testing.T) {
	dir := t.TempDir()
	sup, err := StartSupervisor(SupervisorConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	a, err := DialWorker(sup.Addr(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialWorker(sup.Addr(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.BeginPhase("job-a", PhaseMap, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BeginPhase("job-a", PhaseMap, 7); err == nil {
		t.Fatal("divergent task count accepted")
	}
}

// TestParseKillSpec pins the harness env contract.
func TestParseKillSpec(t *testing.T) {
	if k, err := parseKillSpec("handoff:2"); err != nil || k.kind != "handoff" || k.n != 2 {
		t.Fatalf("got %+v, %v", k, err)
	}
	if k, err := parseKillSpec(""); err != nil || k.kind != "" {
		t.Fatalf("empty spec: got %+v, %v", k, err)
	}
	for _, bad := range []string{"handoff", "handoff:", "handoff:0", ":3", "nonsense:1"} {
		if _, err := parseKillSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
