package fsjoin

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"fsjoin/internal/mapreduce"
)

// This file is the multi-process execution layer (DESIGN.md §15,
// README "Multi-process execution"): Options.Workers ≥ 2 re-executes the
// calling binary as that many supervised worker processes, shards the
// join's map and reduce tasks across them over the filesystem shuffle
// transport, and survives worker crashes by reassigning their leases.
// The model is SPMD — the driver and every worker deterministically
// replay the same pipeline, executing only leased tasks — so the result
// is byte-identical to the in-process run at any worker count and under
// any single-worker loss.

// Environment contract between a clustered driver and the worker
// processes it spawns. MaybeWorker reads these.
const (
	// envWorker marks a process as a spawned join worker.
	envWorker = "FSJOIN_WORKER"
	// envWorkerDir is the run's shared work directory (job spec, control
	// socket, shuffle frames).
	envWorkerDir = "FSJOIN_WORKER_DIR"
	// envWorkerID is the worker's integer id, 0-based.
	envWorkerID = "FSJOIN_WORKER_ID"
	// envKillAt, when set on a worker to "<boundary>:<n>" (boundary one of
	// map, handoff, reduce), SIGKILLs the worker at its n-th such boundary
	// — the recovery harness's crash injection.
	envKillAt = "FSJOIN_KILL_AT"
	// envKillWorker, when set on the DRIVER to "<worker>:<boundary>:<n>",
	// makes the next clustered join arm envKillAt on that one worker. It
	// lets harnesses (and the benchmark runner) inject a crash without an
	// API hook.
	envKillWorker = "FSJOIN_KILL_WORKER"
)

// wireJobFile is the job spec's file name inside the work directory.
const wireJobFile = "job.json"

// wireJob is the serialised join a clustered run ships to its workers:
// both relations as token strings plus the Options every process runs.
// Options marshals itself — Context and OnQuarantine are tagged out and
// the unexported injector and runtime never marshal; clusterRejections
// refuses whichever of those would change semantics. Driver and workers all
// rebuild their collections from this wire form (the driver deliberately
// re-encodes instead of reusing the caller's dictionary), so token-id
// assignment — a function of first-appearance order — agrees across
// processes by construction.
type wireJob struct {
	RS  bool       `json:"rs"` // R-S join (false: self-join, S ignored)
	R   [][]string `json:"r"`
	S   [][]string `json:"s,omitempty"`
	Opt Options    `json:"opt"`
}

// clusterRejections lists the options a Workers > 1 run refuses rather
// than silently change semantics: each cannot cross a process boundary or
// is superseded by the supervisor. runCluster enforces the table;
// TestClusterRejections walks it.
var clusterRejections = []struct {
	name  string
	isSet func(*Options) bool
	err   string
}{
	{"CheckpointDir", func(o *Options) bool { return o.CheckpointDir != "" },
		"is incompatible with CheckpointDir (checkpoint the single-process run instead)"},
	{"Fault.injector", func(o *Options) bool { return o.Fault.injector != nil },
		"cannot carry a test fault injector across processes"},
	{"Fault.OnQuarantine", func(o *Options) bool { return o.Fault.OnQuarantine != nil },
		"cannot deliver OnQuarantine callbacks (tasks run in worker processes)"},
	{"Fault.SpeculativeDelay", func(o *Options) bool { return o.Fault.SpeculativeDelay != 0 },
		"replaces speculation with supervisor lease reassignment; unset SpeculativeDelay"},
}

// wireSets serialises a collection back to token strings, one sorted
// slice per record.
func wireSets(c *Collection) [][]string {
	out := make([][]string, 0, c.t.Len())
	for _, rec := range c.t.Records {
		set := make([]string, len(rec.Tokens))
		for i, id := range rec.Tokens {
			set[i] = c.c.d.Token(id)
		}
		out = append(out, set)
	}
	return out
}

// rebuild encodes the wire relations against one fresh dictionary —
// identically in every process.
func (w *wireJob) rebuild() (r, s *Collection) {
	d := NewDictionary()
	r = d.NewCollection(w.R)
	if w.RS {
		s = d.NewCollection(w.S)
	}
	return r, s
}

// MaybeWorker hands the process over to the clustered-join worker loop
// when it was spawned as one (FSJOIN_WORKER=1) and returns immediately
// otherwise. Binaries that run joins with Options.Workers ≥ 2 must call
// it first thing in main (or TestMain) — worker processes re-execute the
// same binary, and without the hand-off they would re-enter main.
func MaybeWorker() {
	if os.Getenv(envWorker) != "1" {
		return
	}
	if err := runWorker(); err != nil {
		fmt.Fprintf(os.Stderr, "fsjoin worker %s: %v\n", os.Getenv(envWorkerID), err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker executes one worker process: load the job spec, join the
// supervisor, replay the pipeline executing leased tasks, leave.
func runWorker() error {
	dir := os.Getenv(envWorkerDir)
	id, err := strconv.Atoi(os.Getenv(envWorkerID))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envWorkerID, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, wireJobFile))
	if err != nil {
		return err
	}
	var job wireJob
	if err := json.Unmarshal(data, &job); err != nil {
		return fmt.Errorf("job spec: %w", err)
	}
	client, err := mapreduce.DialWorker(mapreduce.ControlSocket(dir), id, os.Getenv(envKillAt))
	if err != nil {
		return err
	}
	job.Opt.runtime = mapreduce.Runtime{
		Transport: mapreduce.NewFSTransport(dir, true),
		Executor:  client,
	}
	r, s := job.rebuild()
	if _, err := run(r, s, job.Opt); err != nil {
		return err
	}
	client.Close()
	return nil
}

// clusterKillSpec parses the driver-side envKillWorker contract,
// returning the target worker and the spec to plant in its environment.
func clusterKillSpec() (worker int, killAt string, err error) {
	v := os.Getenv(envKillWorker)
	if v == "" {
		return -1, "", nil
	}
	i := strings.Index(v, ":")
	if i <= 0 {
		return 0, "", fmt.Errorf("fsjoin: %s=%q: want <worker>:<boundary>:<n>", envKillWorker, v)
	}
	w, err := strconv.Atoi(v[:i])
	if err != nil || w < 0 {
		return 0, "", fmt.Errorf("fsjoin: %s=%q: want <worker>:<boundary>:<n>", envKillWorker, v)
	}
	return w, v[i+1:], nil
}

// runCluster executes one join across opt.Workers supervised worker
// processes. The driver (this process) participates as a non-executing
// SPMD replica: it replays the pipeline for Result assembly while the
// workers do the task work.
func runCluster(r, s *Collection, opt Options) (*Result, error) {
	for _, rej := range clusterRejections {
		if rej.isSet(&opt) {
			return nil, errors.New("fsjoin: Workers > 1 " + rej.err)
		}
	}
	killWorker, killAt, err := clusterKillSpec()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fsjoin: cannot re-execute self: %w", err)
	}

	dir := opt.WorkDir
	ownDir := dir == ""
	if ownDir {
		dir, err = os.MkdirTemp("", "fsjoin-cluster-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	// The job spec every process (this one included) rebuilds from. Workers
	// and WorkDir are cleared so each process takes the normal
	// single-process path with the distributed runtime plugged in.
	spec := opt
	spec.Workers, spec.WorkDir = 0, ""
	job := wireJob{RS: s != nil, R: wireSets(r), Opt: spec}
	if s != nil {
		job.S = wireSets(s)
	}
	data, err := json.Marshal(&job)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, wireJobFile), data, 0o644); err != nil {
		return nil, err
	}

	sup, err := mapreduce.StartSupervisor(mapreduce.SupervisorConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer sup.Close()

	workers := make([]*exec.Cmd, 0, opt.Workers)
	defer func() {
		for _, cmd := range workers {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			cmd.Wait()
		}
	}()
	for id := 0; id < opt.Workers; id++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			envWorker+"=1",
			envWorkerDir+"="+dir,
			envWorkerID+"="+strconv.Itoa(id),
			envKillWorker+"=", // never cascades
		)
		if id == killWorker {
			cmd.Env = append(cmd.Env, envKillAt+"="+killAt)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("fsjoin: spawning worker %d: %w", id, err)
		}
		workers = append(workers, cmd)
	}

	driver, err := mapreduce.DialWorker(sup.Addr(), mapreduce.DriverID, "")
	if err != nil {
		return nil, err
	}
	defer driver.Close()

	// The driver replays the identical pipeline over the rebuilt
	// collections.
	spec.runtime = mapreduce.Runtime{
		Transport: mapreduce.NewFSTransport(dir, true),
		Executor:  driver,
	}
	rd, sd := job.rebuild()
	res, err := run(rd, sd, spec)
	if err != nil {
		return nil, err
	}
	// Reap cleanly before reading counters so late heartbeats settle.
	for _, cmd := range workers {
		cmd.Wait()
	}
	workers = nil
	// The pipeline counters already carry chaos-injected delivery faults
	// (publish surfaced them); the supervisor adds the real supervision
	// activity on top.
	c := sup.Counters()
	res.Stats.Workers = opt.Workers
	res.Stats.TransportHeartbeats = c.Heartbeats
	res.Stats.WorkerDeaths = c.WorkerDeaths
	res.Stats.TasksReassigned += c.TasksReassigned
	res.Stats.PartitionsRedelivered += c.PartitionsRedelivered
	return res, nil
}
