package mapreduce

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// This file is the coordination half of the multi-process runner
// (DESIGN.md §15): a Supervisor that leases tasks to worker processes over
// a unix socket, watches their heartbeats, and reassigns work from dead or
// stalled workers with exponential backoff; and a WorkerClient, the
// Executor each participant (worker process or driver) plugs into
// Config.Runtime. The protocol is line-delimited JSON — one request, one
// reply — chosen for debuggability over throughput: the messages are tiny
// (task grants and completions), the data plane is the filesystem
// transport.
//
// Failure detection is two-tier. A SIGKILLed worker's control connection
// EOFs immediately, so its leases release on the spot; a stalled worker
// (alive but wedged) is caught by lease deadlines and heartbeat timeouts.
// Either way the task returns to the grant queue after an exponential
// backoff, and the supervisor counts the reassignment. Because every task
// is deterministic and delivery is generation-stamped newest-complete-wins,
// a reassigned task that races its presumed-dead original is harmless:
// both commits carry identical bytes.

// ctlSocketName is the supervisor's unix socket, created in the run's
// work directory.
const ctlSocketName = "ctl.sock"

// ControlSocket returns the supervisor's socket path within a work
// directory — what worker processes dial.
func ControlSocket(dir string) string { return filepath.Join(dir, ctlSocketName) }

// driverWorkerID is the Executor id the driver process registers under.
// The supervisor never grants tasks to the driver: its job is to replay
// the pipeline for Result assembly, staying responsive for the user even
// when every worker is busy.
const driverWorkerID = -1

// DriverID is the reserved participant id for the non-executing driver;
// callers pass it to DialWorker from the process that owns the run.
const DriverID = driverWorkerID

// SupervisorConfig tunes failure detection.
type SupervisorConfig struct {
	// Dir is the run's work directory; the control socket lives here.
	Dir string
	// LeaseDuration bounds how long a granted task may run before the
	// supervisor presumes the holder stalled and re-queues the task.
	// 0 means a minute.
	LeaseDuration time.Duration
	// HeartbeatTimeout declares a worker dead when no heartbeat arrives
	// for this long. 0 means 10 s.
	HeartbeatTimeout time.Duration
	// ReassignBackoff is the base delay before a released task is granted
	// again, doubling per release of the same task. 0 means 10 ms.
	ReassignBackoff time.Duration
}

// SupervisorCounters is a snapshot of the supervisor's fault accounting,
// published into fsjoin.Stats after a clustered run.
type SupervisorCounters struct {
	Heartbeats            int64
	WorkerDeaths          int64
	TasksReassigned       int64
	PartitionsRedelivered int64
}

// taskState is one task's position in the lease lifecycle.
type taskState int

const (
	taskQueued taskState = iota
	taskLeased
	taskDone
)

// superTask is the supervisor's view of one task of the current phase.
type superTask struct {
	state    taskState
	holder   int       // worker id while leased
	deadline time.Time // lease expiry while leased
	releases int       // grants lost to death/expiry, drives backoff
	notUntil time.Time // backoff gate for the next grant
}

// requeue returns a lost grant — its holder died or its lease expired — to
// the queue, gated behind an exponential backoff of base per loss.
func (st *superTask) requeue(now time.Time, base time.Duration) {
	st.state = taskQueued
	st.releases++
	st.notUntil = now.Add(base << min(st.releases-1, 6))
}

// superPhase is the currently announced phase: what remains to grant and
// which participants have reached its barrier.
type superPhase struct {
	seq   int
	job   string
	phase Phase
	tasks []superTask
	done  int
}

// superWorker is one registered participant.
type superWorker struct {
	id       int
	ctl      net.Conn
	lastBeat time.Time
	dead     bool
	phaseSeq int // highest phase seq this worker announced
}

// Supervisor coordinates one clustered run. It is phase-synchronous:
// every participant announces the same deterministic sequence of
// (job, phase, n) phases; the supervisor grants each phase's tasks to
// whichever live non-driver participants ask, and holds the barrier until
// all tasks commit.
type Supervisor struct {
	cfg SupervisorConfig
	ln  net.Listener

	mu       sync.Mutex
	phases   map[int]*superPhase // by seq; phases are created on first announce
	nextSeq  int                 // highest seq announced by anyone
	workers  map[int]*superWorker
	counters SupervisorCounters
	started  time.Time
	closed   bool
	fatal    error
}

// StartSupervisor listens on the control socket and begins accepting
// participants.
func StartSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = time.Minute
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.ReassignBackoff <= 0 {
		cfg.ReassignBackoff = 10 * time.Millisecond
	}
	ln, err := net.Listen("unix", filepath.Join(cfg.Dir, ctlSocketName))
	if err != nil {
		return nil, fmt.Errorf("mapreduce: supervisor: %w", err)
	}
	s := &Supervisor{
		cfg:     cfg,
		ln:      ln,
		phases:  make(map[int]*superPhase),
		workers: make(map[int]*superWorker),
		started: time.Now(),
	}
	go s.accept()
	go s.reap()
	return s, nil
}

// Addr returns the control socket path workers dial.
func (s *Supervisor) Addr() string { return filepath.Join(s.cfg.Dir, ctlSocketName) }

// Counters snapshots the fault accounting.
func (s *Supervisor) Counters() SupervisorCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Close shuts the supervisor down and disconnects every participant.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.workers))
	for _, w := range s.workers {
		if w.ctl != nil {
			conns = append(conns, w.ctl)
		}
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// ctlMsg is the one message shape both directions share; unused fields
// stay zero. Kind discriminates.
type ctlMsg struct {
	Kind string `json:"kind"`
	// hello
	Worker int    `json:"worker,omitempty"`
	Role   string `json:"role,omitempty"` // "ctl" or "beat"
	// begin
	Seq   int    `json:"seq,omitempty"`
	Job   string `json:"job,omitempty"`
	Phase int    `json:"phase,omitempty"`
	N     int    `json:"n,omitempty"`
	// next / done replies
	Task        int    `json:"task"`
	OK          bool   `json:"ok,omitempty"`
	Wait        bool   `json:"wait,omitempty"`
	Redelivered bool   `json:"redelivered,omitempty"`
	Err         string `json:"err,omitempty"`
}

// accept registers participants: each dials twice, a "ctl" connection for
// the request/reply protocol and a fire-and-forget "beat" stream.
func (s *Supervisor) accept() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

// serve handles one connection from hello to EOF.
func (s *Supervisor) serve(conn net.Conn) {
	dec := json.NewDecoder(conn)
	var hello ctlMsg
	if err := dec.Decode(&hello); err != nil || hello.Kind != "hello" {
		conn.Close()
		return
	}
	switch hello.Role {
	case "beat":
		s.serveBeats(conn, dec, hello.Worker)
	default:
		s.serveCtl(conn, dec, hello.Worker)
	}
}

// serveBeats consumes one worker's heartbeat stream.
func (s *Supervisor) serveBeats(conn net.Conn, dec *json.Decoder, id int) {
	defer conn.Close()
	for {
		var m ctlMsg
		if err := dec.Decode(&m); err != nil {
			return
		}
		s.mu.Lock()
		s.counters.Heartbeats++
		if w := s.workers[id]; w != nil {
			w.lastBeat = time.Now()
		}
		s.mu.Unlock()
	}
}

// serveCtl runs one participant's request/reply loop. EOF without a "bye"
// is a death: the worker's leases release immediately.
func (s *Supervisor) serveCtl(conn net.Conn, dec *json.Decoder, id int) {
	enc := json.NewEncoder(conn)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	w := &superWorker{id: id, ctl: conn, lastBeat: time.Now(), phaseSeq: -1}
	s.workers[id] = w
	s.mu.Unlock()
	graceful := false
	defer func() {
		conn.Close()
		if !graceful {
			s.declareDead(id)
		}
	}()
	for {
		var m ctlMsg
		if err := dec.Decode(&m); err != nil {
			return
		}
		var reply ctlMsg
		switch m.Kind {
		case "begin":
			reply = s.handleBegin(w, m)
		case "next":
			reply = s.handleNext(w, m.Seq)
		case "done":
			reply = s.handleDone(w, m.Seq, m.Task, m.Redelivered)
		case "barrier":
			reply = s.handleBarrier(m.Seq)
		case "bye":
			graceful = true
			s.retireWorker(id)
			return
		default:
			reply = ctlMsg{Kind: "err", Err: fmt.Sprintf("unknown request %q", m.Kind)}
		}
		if err := enc.Encode(reply); err != nil {
			return
		}
	}
}

// handleBegin validates a phase announcement against what other
// participants announced for the same seq — the SPMD contract says they
// must be identical — and creates the phase on first sight.
func (s *Supervisor) handleBegin(w *superWorker, m ctlMsg) ctlMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fatalErr(); err != nil {
		return ctlMsg{Kind: "err", Err: err.Error()}
	}
	ph := s.phases[m.Seq]
	if ph == nil {
		ph = &superPhase{seq: m.Seq, job: m.Job, phase: Phase(m.Phase), tasks: make([]superTask, m.N)}
		s.phases[m.Seq] = ph
		if m.Seq > s.nextSeq {
			s.nextSeq = m.Seq
		}
	} else if ph.job != m.Job || ph.phase != Phase(m.Phase) || len(ph.tasks) != m.N {
		err := fmt.Errorf("phase %d divergence: worker %d announced %s/%v/%d, run has %s/%v/%d",
			m.Seq, w.id, m.Job, Phase(m.Phase), m.N, ph.job, ph.phase, len(ph.tasks))
		s.fatal = err
		return ctlMsg{Kind: "err", Err: err.Error()}
	}
	w.phaseSeq = m.Seq
	return ctlMsg{Kind: "ok"}
}

// handleNext grants the next available task of phase seq, or tells the
// caller to wait (tasks leased elsewhere, or backoff pending) or that the
// phase has drained. The driver is never granted tasks.
func (s *Supervisor) handleNext(w *superWorker, seq int) ctlMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fatalErr(); err != nil {
		return ctlMsg{Kind: "err", Err: err.Error()}
	}
	ph := s.phases[seq]
	if ph == nil {
		return ctlMsg{Kind: "err", Err: fmt.Sprintf("next for unannounced phase %d", seq)}
	}
	if w.id == driverWorkerID {
		if ph.done == len(ph.tasks) {
			return ctlMsg{Kind: "drained"}
		}
		if err := s.workersLost(ph); err != nil {
			return ctlMsg{Kind: "err", Err: err.Error()}
		}
		return ctlMsg{Kind: "wait", Wait: true}
	}
	now := time.Now()
	for t := range ph.tasks {
		st := &ph.tasks[t]
		if st.state != taskQueued || now.Before(st.notUntil) {
			continue
		}
		st.state = taskLeased
		st.holder = w.id
		st.deadline = now.Add(s.cfg.LeaseDuration)
		if st.releases > 0 {
			s.counters.TasksReassigned++
		}
		return ctlMsg{Kind: "task", Task: t, OK: true}
	}
	if ph.done == len(ph.tasks) {
		return ctlMsg{Kind: "drained"}
	}
	// Remaining tasks are leased elsewhere or in backoff. The worker must
	// keep polling rather than retreat to the barrier: if a lease holder
	// dies, its task requeues and someone still asking has to pick it up.
	return ctlMsg{Kind: "wait", Wait: true}
}

// handleDone commits a lease. A done for a task someone else already
// completed is the benign race the redelivery contract exists for.
func (s *Supervisor) handleDone(w *superWorker, seq, task int, redelivered bool) ctlMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	ph := s.phases[seq]
	if ph == nil || task < 0 || task >= len(ph.tasks) {
		return ctlMsg{Kind: "err", Err: fmt.Sprintf("done for unknown task %d of phase %d", task, seq)}
	}
	st := &ph.tasks[task]
	if redelivered {
		s.counters.PartitionsRedelivered++
	}
	switch st.state {
	case taskDone:
		s.counters.PartitionsRedelivered++ // duplicate completion: the commit was idempotent
	default:
		st.state = taskDone
		ph.done++
	}
	return ctlMsg{Kind: "ok"}
}

// handleBarrier reports whether phase seq has fully committed.
func (s *Supervisor) handleBarrier(seq int) ctlMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fatalErr(); err != nil {
		return ctlMsg{Kind: "err", Err: err.Error()}
	}
	ph := s.phases[seq]
	if ph == nil {
		return ctlMsg{Kind: "err", Err: fmt.Sprintf("barrier for unannounced phase %d", seq)}
	}
	if ph.done == len(ph.tasks) {
		return ctlMsg{Kind: "ok"}
	}
	if err := s.workersLost(ph); err != nil {
		return ctlMsg{Kind: "err", Err: err.Error()}
	}
	return ctlMsg{Kind: "wait", Wait: true}
}

// workersLost declares the run dead when no worker can finish the phase:
// every registered worker is gone and the startup grace (the heartbeat
// timeout) has passed. Within the grace other workers may still be
// launching — one that registers and dies before its peers have connected
// must not end the run. Callers hold s.mu; the error is sticky.
func (s *Supervisor) workersLost(ph *superPhase) error {
	if s.liveWorkers() {
		return nil
	}
	if time.Since(s.started) <= s.cfg.HeartbeatTimeout {
		return nil // startup grace: workers are still launching
	}
	err := fmt.Errorf("phase %d (%s/%v): all workers dead with %d/%d tasks incomplete",
		ph.seq, ph.job, ph.phase, ph.done, len(ph.tasks))
	s.fatal = err
	return err
}

// liveWorkers reports whether any non-driver participant is still alive.
// Callers hold s.mu.
func (s *Supervisor) liveWorkers() bool {
	for id, w := range s.workers {
		if id != driverWorkerID && !w.dead {
			return true
		}
	}
	return false
}

// fatalErr returns the sticky run-fatal error. Callers hold s.mu.
func (s *Supervisor) fatalErr() error {
	if s.fatal != nil {
		return fmt.Errorf("run aborted: %w", s.fatal)
	}
	return nil
}

// retireWorker removes a gracefully departing worker without counting a
// death; its leases (it should hold none) release without backoff credit.
func (s *Supervisor) retireWorker(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.workers[id]; w != nil {
		w.dead = true
	}
	s.releaseLeases(id, false)
}

// declareDead marks a worker dead and requeues its leases with backoff.
func (s *Supervisor) declareDead(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil || w.dead || s.closed || id == driverWorkerID {
		return
	}
	w.dead = true
	s.counters.WorkerDeaths++
	s.releaseLeases(id, true)
}

// releaseLeases requeues every task the worker holds. backoff credits the
// task's release count, delaying and de-prioritising its next grant.
// Callers hold s.mu.
func (s *Supervisor) releaseLeases(id int, backoff bool) {
	now := time.Now()
	for _, ph := range s.phases {
		for t := range ph.tasks {
			st := &ph.tasks[t]
			if st.state != taskLeased || st.holder != id {
				continue
			}
			if backoff {
				st.requeue(now, s.cfg.ReassignBackoff)
			} else {
				st.state = taskQueued
			}
		}
	}
}

// reap periodically expires stalled leases and heartbeat-silent workers.
func (s *Supervisor) reap() {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		now := time.Now()
		var silent []int
		for id, w := range s.workers {
			if id == driverWorkerID || w.dead {
				continue
			}
			if now.Sub(w.lastBeat) > s.cfg.HeartbeatTimeout {
				silent = append(silent, id)
			}
		}
		for _, ph := range s.phases {
			for t := range ph.tasks {
				st := &ph.tasks[t]
				if st.state == taskLeased && now.After(st.deadline) {
					st.requeue(now, s.cfg.ReassignBackoff)
				}
			}
		}
		s.mu.Unlock()
		for _, id := range silent {
			s.declareDead(id)
		}
	}
}

// ---------------------------------------------------------------------------
// Worker side

// WorkerClient is the Executor a participant plugs into Config.Runtime: it
// leases tasks from the supervisor over the control socket and streams
// heartbeats on a second connection. The driver participates with id
// driverWorkerID and is never granted tasks.
type WorkerClient struct {
	id   int
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
	mu   sync.Mutex // serialises request/reply exchanges

	beat     net.Conn
	beatStop chan struct{}
	beatWG   sync.WaitGroup

	seq  int // phase announcements so far
	kill killSpec
	// die, when non-nil, replaces the armed SIGKILL with an in-process
	// stand-in (tests drop the connections instead of killing the test
	// binary). From the supervisor's side the two are indistinguishable.
	die func()
}

// killSpec is the parsed FSJOIN_KILL_AT contract: SIGKILL self when the
// n-th boundary of the given kind is reached. Zero value means never.
type killSpec struct {
	kind string
	n    int
	seen int
}

// parseKillSpec parses "<boundary>:<n>", e.g. "handoff:2". Empty means no
// kill. Malformed specs are an error: a typo silently disarming the chaos
// harness would void what the harness proves.
func parseKillSpec(s string) (killSpec, error) {
	if s == "" {
		return killSpec{}, nil
	}
	var k killSpec
	i := -1
	for j := 0; j < len(s); j++ {
		if s[j] == ':' {
			i = j
			break
		}
	}
	if i <= 0 {
		return killSpec{}, fmt.Errorf("kill spec %q: want <boundary>:<n>", s)
	}
	k.kind = s[:i]
	if _, err := fmt.Sscanf(s[i+1:], "%d", &k.n); err != nil || k.n <= 0 {
		return killSpec{}, fmt.Errorf("kill spec %q: want <boundary>:<n>", s)
	}
	switch k.kind {
	case "map", "handoff", "reduce":
	default:
		return killSpec{}, fmt.Errorf("kill spec %q: unknown boundary", s)
	}
	return k, nil
}

// DialWorker connects a participant to the supervisor at socketPath.
// killAt, when non-empty, arms the chaos harness's self-kill (see
// parseKillSpec).
func DialWorker(socketPath string, id int, killAt string) (*WorkerClient, error) {
	kill, err := parseKillSpec(killAt)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: worker %d: %w", id, err)
	}
	conn, err := net.Dial("unix", socketPath)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: worker %d: %w", id, err)
	}
	w := &WorkerClient{
		id:   id,
		conn: conn,
		enc:  json.NewEncoder(conn),
		dec:  json.NewDecoder(conn),
		kill: kill,
	}
	if err := w.enc.Encode(ctlMsg{Kind: "hello", Worker: id, Role: "ctl"}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mapreduce: worker %d: %w", id, err)
	}
	beat, err := net.Dial("unix", socketPath)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mapreduce: worker %d: %w", id, err)
	}
	benc := json.NewEncoder(beat)
	if err := benc.Encode(ctlMsg{Kind: "hello", Worker: id, Role: "beat"}); err != nil {
		conn.Close()
		beat.Close()
		return nil, fmt.Errorf("mapreduce: worker %d: %w", id, err)
	}
	w.beat = beat
	w.beatStop = make(chan struct{})
	w.beatWG.Add(1)
	go func() {
		defer w.beatWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.beatStop:
				return
			case <-tick.C:
				if benc.Encode(ctlMsg{Kind: "beat", Worker: id}) != nil {
					return
				}
			}
		}
	}()
	return w, nil
}

// Close ends participation gracefully: a "bye" so the supervisor retires
// the worker instead of declaring it dead.
func (w *WorkerClient) Close() {
	w.mu.Lock()
	w.enc.Encode(ctlMsg{Kind: "bye", Worker: w.id})
	w.mu.Unlock()
	close(w.beatStop)
	w.beat.Close()
	w.conn.Close()
	w.beatWG.Wait()
}

// call runs one request/reply exchange.
func (w *WorkerClient) call(req ctlMsg) (ctlMsg, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.enc.Encode(req); err != nil {
		return ctlMsg{}, fmt.Errorf("mapreduce: worker %d: supervisor lost: %w", w.id, err)
	}
	var reply ctlMsg
	if err := w.dec.Decode(&reply); err != nil {
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("supervisor closed the run")
		}
		return ctlMsg{}, fmt.Errorf("mapreduce: worker %d: %w", w.id, err)
	}
	if reply.Kind == "err" {
		return ctlMsg{}, fmt.Errorf("mapreduce: worker %d: %s", w.id, reply.Err)
	}
	return reply, nil
}

// BeginPhase implements Executor. The phase sequence number is local
// monotone state: determinism makes every participant's sequence line up.
func (w *WorkerClient) BeginPhase(job string, phase Phase, n int) (PhaseLease, error) {
	w.seq++
	seq := w.seq
	if _, err := w.call(ctlMsg{Kind: "begin", Worker: w.id, Seq: seq, Job: job, Phase: int(phase), N: n}); err != nil {
		return nil, err
	}
	return &workerLease{w: w, seq: seq}, nil
}

// atBoundary implements boundaryObserver: the armed kill boundary
// SIGKILLs this process mid-protocol, exactly what the recovery machinery
// must survive.
func (w *WorkerClient) atBoundary(kind string) {
	if w.kill.kind != kind {
		return
	}
	w.kill.seen++
	if w.kill.seen != w.kill.n {
		return
	}
	if w.die != nil {
		w.die()
		return
	}
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		p.Kill()
	}
	select {} // never proceed past the boundary, even if Kill raced
}

// workerLease is one phase's lease source.
type workerLease struct {
	w   *WorkerClient
	seq int
}

// Next implements PhaseLease, polling through "wait" replies.
func (l *workerLease) Next() (int, bool, error) {
	for {
		reply, err := l.w.call(ctlMsg{Kind: "next", Worker: l.w.id, Seq: l.seq})
		if err != nil {
			return 0, false, err
		}
		switch reply.Kind {
		case "task":
			return reply.Task, true, nil
		case "drained":
			return 0, false, nil
		case "wait":
			time.Sleep(2 * time.Millisecond)
		default:
			return 0, false, fmt.Errorf("mapreduce: worker %d: unexpected reply %q", l.w.id, reply.Kind)
		}
	}
}

// Done implements PhaseLease.
func (l *workerLease) Done(task int, redelivered bool) error {
	_, err := l.w.call(ctlMsg{Kind: "done", Worker: l.w.id, Seq: l.seq, Task: task, Redelivered: redelivered})
	return err
}

// Barrier implements PhaseLease, polling until the phase commits.
func (l *workerLease) Barrier() error {
	for {
		reply, err := l.w.call(ctlMsg{Kind: "barrier", Worker: l.w.id, Seq: l.seq})
		if err != nil {
			return err
		}
		if reply.Kind == "ok" {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}
