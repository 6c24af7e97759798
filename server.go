package fsjoin

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"fsjoin/internal/frame"
	"fsjoin/internal/sched"
	"fsjoin/internal/spill"
)

// Typed serving-layer failures. A shed job did no work: it was rejected
// before tokenising, partitioning or spilling anything.
var (
	// ErrOverloaded rejects a job the server cannot take: its lease
	// exceeds the whole pool, or the admission queue is full.
	ErrOverloaded = errors.New("fsjoin: server overloaded")
	// ErrQueueTimeout rejects a job that waited in the admission queue
	// longer than its queue-wait bound.
	ErrQueueTimeout = errors.New("fsjoin: queue-wait timeout")
	// ErrServerClosed rejects jobs submitted to — or still queued on — a
	// server that has begun shutting down.
	ErrServerClosed = errors.New("fsjoin: server closed")
)

// JobError is the typed failure of a job whose execution panicked. The
// server recovers the panic, so sibling jobs keep running; the caller gets
// the recovered value and stack instead of a crashed process.
type JobError struct {
	// Job labels the failed job (Job.Key when set, else a server-assigned
	// sequence label).
	Job string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("fsjoin: job %s panicked: %v", e.Job, e.Value)
}

// Unwrap exposes the panic value when it is itself an error, so errors.Is
// reaches a cause thrown through the panic.
func (e *JobError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// MemoryBudget is the process-wide shuffle-memory pool, in bytes,
	// shared by every concurrent job. Required (> 0): each admitted job
	// holds a lease carved from this pool for its whole run.
	MemoryBudget int64
	// MaxConcurrent caps jobs running at once; 0 means one per CPU core.
	MaxConcurrent int
	// MaxQueue bounds jobs waiting for admission; jobs arriving at a full
	// queue are shed with ErrOverloaded. 0 means 16; negative disables
	// queueing entirely (anything not admitted immediately is shed).
	MaxQueue int
	// DefaultDeadline bounds each job's execution (queue wait excluded)
	// unless the job sets its own; 0 means none. An expired deadline
	// aborts the job with an error wrapping context.DeadlineExceeded.
	DefaultDeadline time.Duration
	// QueueTimeout bounds each job's admission wait unless the job sets
	// its own; 0 means wait indefinitely (until the context or server
	// says otherwise).
	QueueTimeout time.Duration
	// SpillRoot is the parent directory for all jobs' spill files; ""
	// creates a private directory under the OS temp dir, removed on
	// Shutdown.
	SpillRoot string
	// CheckpointRoot, when non-empty, enables durable stage checkpoints
	// for jobs that set a Key: each keyed job checkpoints under its own
	// subdirectory, named by the key, so concurrent jobs never collide on
	// stage files. Run refuses a key that is not such a name.
	CheckpointRoot string
	// MaintenanceInterval paces the background maintenance goroutines
	// started by MaintainIndex (WAL group-commit flush + auto-compaction
	// checks); 0 means 1s.
	MaintenanceInterval time.Duration
}

// Job is one join submitted to a Server.
type Job struct {
	// Collection is the input (the R side for R-S joins). Required.
	Collection *Collection
	// Other, when non-nil, makes the job an R-S join against this S side.
	Other *Collection
	// Options configures the join exactly as for direct calls. The value
	// is owned by the caller and never mutated; the server applies its
	// lease, context and directories to a private copy.
	Options Options
	// Priority orders admission: higher first, FIFO among equals.
	Priority int
	// Deadline overrides ServerOptions.DefaultDeadline; 0 inherits it.
	Deadline time.Duration
	// QueueTimeout overrides ServerOptions.QueueTimeout; 0 inherits it.
	QueueTimeout time.Duration
	// MemoryLease is the job's share of the global pool, in bytes. 0
	// falls back to Options.MemoryBudget, then to an equal share of the
	// pool (MemoryBudget / MaxConcurrent). A lease larger than the whole
	// pool is shed with ErrOverloaded.
	MemoryLease int64
	// Key, with ServerOptions.CheckpointRoot, names the job's private
	// checkpoint subdirectory — resubmitting the same Key with the same
	// input and options replays finished stages. "" disables
	// checkpointing for this job. With a CheckpointRoot the key must be a
	// directory name of its own: not "." or "..", and only ASCII letters,
	// digits, '.', '_' and '-'.
	Key string

	// testHookPreRun, when set by in-package tests, runs inside the
	// panic-isolated execution region.
	testHookPreRun func()
}

// ServerStats snapshots a server's serving activity.
type ServerStats struct {
	// Admitted, Shed, TimedOut and Cancelled count admission outcomes
	// (see ErrOverloaded / ErrQueueTimeout; Cancelled is contexts expiring
	// in the queue).
	Admitted  int64
	Shed      int64
	TimedOut  int64
	Cancelled int64
	// Completed and Failed count finished jobs by outcome; Panicked is
	// the subset of Failed recovered from a panic.
	Completed int64
	Failed    int64
	Panicked  int64
	// MaintenanceFailed and MaintenancePanicked count failing background
	// index-maintenance passes (see MaintainIndex); the panicked subset was
	// recovered into a *JobError.
	MaintenanceFailed   int64
	MaintenancePanicked int64
	// Running and Queued are current occupancy; PeakQueued the queue's
	// high-water mark; MemoryInUse the leased share of the pool.
	Running     int
	Queued      int
	PeakQueued  int
	MemoryInUse int64
}

// Server runs many joins concurrently under one global contract: a shared
// memory pool with per-job leases, bounded priority admission with
// deadlines and queue-wait timeouts, typed load shedding, panic isolation,
// and graceful drain. Methods are safe for concurrent use.
//
//	srv, _ := fsjoin.NewServer(fsjoin.ServerOptions{MemoryBudget: 64 << 20})
//	defer srv.Shutdown(context.Background())
//	res, err := srv.SelfJoin(ctx, coll, fsjoin.Options{Threshold: 0.8})
type Server struct {
	opt  ServerOptions
	gate *sched.Gate

	mu        sync.Mutex
	closed    bool
	nextID    int64
	cancels   map[int64]context.CancelFunc
	completed int64
	failed    int64
	panicked  int64

	running   sync.WaitGroup
	spillRoot string
	ownSpill  bool

	// drain closes when Shutdown begins, stopping maintenance goroutines
	// before the job drain is waited on.
	drain     chan struct{}
	drainOnce sync.Once

	maintFailed   int64
	maintPanicked int64
	lastMaintErr  error

	// testHookMaintain, when set by in-package tests, observes the outcome
	// of every maintenance pass.
	testHookMaintain func(err error)
}

// NewServer validates the options and returns a running server.
func NewServer(opt ServerOptions) (*Server, error) {
	if opt.MemoryBudget <= 0 {
		return nil, errors.New("fsjoin: ServerOptions.MemoryBudget must be positive")
	}
	slots := opt.MaxConcurrent
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	queue := opt.MaxQueue
	switch {
	case queue == 0:
		queue = 16
	case queue < 0:
		queue = 0
	}
	s := &Server{
		opt:     opt,
		gate:    sched.New(opt.MemoryBudget, slots, queue),
		cancels: make(map[int64]context.CancelFunc),
		drain:   make(chan struct{}),
	}
	s.opt.MaxConcurrent = slots
	if opt.SpillRoot != "" {
		if err := os.MkdirAll(opt.SpillRoot, 0o700); err != nil {
			return nil, fmt.Errorf("fsjoin: spill root: %w", err)
		}
		s.spillRoot = opt.SpillRoot
	} else {
		dir, err := os.MkdirTemp("", "fsjoin-serve-")
		if err != nil {
			return nil, fmt.Errorf("fsjoin: spill root: %w", err)
		}
		s.spillRoot, s.ownSpill = dir, true
	}
	return s, nil
}

// SelfJoin submits a self-join with default job settings. Equivalent to
// Run with a Job carrying just the collection and options.
func (s *Server) SelfJoin(ctx context.Context, c *Collection, opt Options) (*Result, error) {
	return s.Run(ctx, Job{Collection: c, Options: opt})
}

// Join submits an R-S join with default job settings. Equivalent to Run
// with a Job carrying the R collection, the S side in Other, and options.
func (s *Server) Join(ctx context.Context, r, srel *Collection, opt Options) (*Result, error) {
	return s.Run(ctx, Job{Collection: r, Other: srel, Options: opt})
}

// Run submits one job and blocks until it completes, is shed, or fails.
// Admission may queue the job behind higher-priority work; ctx cancels
// both the wait and (together with the job's deadline) the execution. The
// error is ErrOverloaded / ErrQueueTimeout / ErrServerClosed for shed jobs
// (no work was started), a *JobError for a panicking job, and otherwise
// whatever the join returns — wrapping context.DeadlineExceeded when the
// job's deadline expired mid-run.
func (s *Server) Run(ctx context.Context, job Job) (*Result, error) {
	if job.Collection == nil {
		return nil, errors.New("fsjoin: job has no collection")
	}
	if job.Options.MemoryBudget < 0 || job.MemoryLease < 0 {
		return nil, errors.New("fsjoin: server jobs cannot disable memory accounting (negative budget/lease)")
	}
	if s.opt.CheckpointRoot != "" && job.Key != "" && (job.Key == "." || job.Key == ".." || !checkpointKey.MatchString(job.Key)) {
		return nil, fmt.Errorf("fsjoin: job key %q names no checkpoint directory of its own", job.Key)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	lease := job.MemoryLease
	if lease == 0 {
		lease = job.Options.MemoryBudget
	}
	if lease == 0 {
		lease = s.opt.MemoryBudget / int64(s.opt.MaxConcurrent)
		if lease < 1 {
			lease = 1
		}
	}
	queueTimeout := job.QueueTimeout
	if queueTimeout == 0 {
		queueTimeout = s.opt.QueueTimeout
	}
	deadline := job.Deadline
	if deadline == 0 {
		deadline = s.opt.DefaultDeadline
	}
	label := job.Key
	if label == "" {
		label = "(unkeyed)"
	}
	var res *Result
	err := s.serve(ctx, admission{
		lease: lease, priority: job.Priority, queueTimeout: queueTimeout,
		parent: job.Options.Context, deadline: deadline, label: label,
	}, func(jctx context.Context, lease int64, queueWait time.Duration) (err error) {
		res, err = s.execute(jctx, job, lease)
		if res != nil {
			res.Stats.QueueWait = queueWait
			res.Stats.MemoryLease = lease
		}
		return err
	})
	return res, err
}

// admission is what one job asks of the server's admission gate.
type admission struct {
	lease        int64
	priority     int
	queueTimeout time.Duration
	// parent, when non-nil, replaces the submission context as the
	// execution context's parent; deadline, when positive, bounds
	// execution only — queue wait is charged against queueTimeout.
	parent   context.Context
	deadline time.Duration
	// label names the job in the *JobError a panic becomes.
	label string
}

// serve is the admission path Run and ProbeBatch share: a job is refused
// once the server is closed, joins the drain, waits for its lease, and
// runs under a per-job context Shutdown can cancel. Its outcome is
// counted, and a panic in run is recovered into a *JobError so one broken
// job cannot take down its siblings. run gets the execution context, the
// granted lease and the time spent queued.
func (s *Server) serve(ctx context.Context, a admission, run func(jctx context.Context, lease int64, queueWait time.Duration) error) (err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	// Joining the WaitGroup before unlocking keeps Shutdown's Wait from
	// missing a job admitted concurrently with the close.
	s.running.Add(1)
	s.mu.Unlock()
	defer s.running.Done()

	waitStart := time.Now()
	grant, err := s.gate.Acquire(ctx, a.lease, a.priority, a.queueTimeout)
	if err != nil {
		return translateSched(err)
	}
	defer grant.Release()
	queueWait := time.Since(waitStart)

	parent := ctx
	if a.parent != nil {
		parent = a.parent
	}
	var (
		jctx   context.Context
		cancel context.CancelFunc
	)
	if a.deadline > 0 {
		jctx, cancel = context.WithTimeout(parent, a.deadline)
	} else {
		jctx, cancel = context.WithCancel(parent)
	}
	defer cancel()

	s.mu.Lock()
	if s.closed {
		// Shutdown won the race after admission: refuse to start.
		s.mu.Unlock()
		return ErrServerClosed
	}
	id := s.nextID
	s.nextID++
	s.cancels[id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, id)
		if err != nil {
			s.failed++
			if _, ok := err.(*JobError); ok {
				s.panicked++
			}
		} else {
			s.completed++
		}
		s.mu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{Job: a.label, Value: r, Stack: debug.Stack()}
		}
	}()
	return run(jctx, grant.Bytes(), queueWait)
}

// execute runs one admitted job with its lease applied.
func (s *Server) execute(ctx context.Context, job Job, lease int64) (*Result, error) {
	opt := job.Options // private copy; the caller's value is never touched
	opt.Context = ctx
	opt.MemoryBudget = lease
	opt.SpillDir = s.spillRoot
	opt.CheckpointDir = ""
	if s.opt.CheckpointRoot != "" && job.Key != "" {
		opt.CheckpointDir = filepath.Join(s.opt.CheckpointRoot, job.Key)
	}
	if job.testHookPreRun != nil {
		job.testHookPreRun()
	}
	if job.Other != nil {
		return job.Collection.Join(job.Other, opt)
	}
	return job.Collection.SelfJoin(opt)
}

// probeLeaseCap bounds the memory lease a probe holds: probes never spill
// or shuffle, so their admission cost is a token share of the pool — enough
// to be counted, never enough to starve a batch join.
const probeLeaseCap = 64 << 10

// probePriority orders probes ahead of default-priority batch jobs in the
// admission queue: single-record queries are latency-bound while batch
// joins are throughput-bound, so an online probe should not sit behind a
// queued multi-minute join.
const probePriority = 1

// Probe serves one single-record similarity query against a probe index
// through the server's admission machinery: the query takes a (small)
// memory lease from the same global pool batch jobs use, waits in the same
// priority queue (ahead of default-priority jobs), is shed with the same
// typed errors under overload or shutdown, and runs panic-isolated. The
// index itself is built with BuildIndex or LoadIndex and may be shared by
// any number of concurrent probes.
func (s *Server) Probe(ctx context.Context, ix *Index, set []string) ([]Match, error) {
	out, err := s.ProbeBatch(ctx, ix, [][]string{set})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ProbeBatch serves many probes under one admission grant: the batch is
// admitted once, then each set is answered in order. Between sets the
// batch stops if ctx is done or Shutdown runs out of patience. Element i
// of the result answers sets[i].
func (s *Server) ProbeBatch(ctx context.Context, ix *Index, sets [][]string) ([][]Match, error) {
	if ix == nil {
		return nil, errors.New("fsjoin: probe against nil index")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	lease := s.opt.MemoryBudget / int64(s.opt.MaxConcurrent)
	if lease < 1 {
		lease = 1
	}
	if lease > probeLeaseCap {
		lease = probeLeaseCap
	}

	var out [][]Match
	err := s.serve(ctx, admission{lease: lease, priority: probePriority, queueTimeout: s.opt.QueueTimeout, label: "probe"},
		func(jctx context.Context, _ int64, _ time.Duration) error {
			out = make([][]Match, len(sets))
			for i, set := range sets {
				if err := jctx.Err(); err != nil {
					return err
				}
				out[i] = ix.Probe(set)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MaintainIndex runs ix's maintenance — pending WAL group commits are
// flushed and the auto-compaction policy evaluated — in a supervised
// background goroutine every ServerOptions.MaintenanceInterval (default
// 1s) until the server shuts down. A panicking pass is recovered into a
// *JobError (visible through ServerStats.MaintenancePanicked) and the loop
// keeps running: one broken compaction cannot take maintenance down with
// it. Compaction takes the index write lock, so it coexists with
// concurrent probes and mutations under the index's existing RWMutex
// regime. Safe to call for several indexes; each gets its own goroutine.
func (s *Server) MaintainIndex(ix *Index) error {
	if ix == nil {
		return errors.New("fsjoin: maintain nil index")
	}
	interval := s.opt.MaintenanceInterval
	if interval <= 0 {
		interval = time.Second
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.running.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.running.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.drain:
				return
			case <-ticker.C:
			}
			err := s.maintainOnce(ix)
			s.mu.Lock()
			if err != nil {
				s.maintFailed++
				if _, ok := err.(*JobError); ok {
					s.maintPanicked++
				}
				s.lastMaintErr = err
			}
			hook := s.testHookMaintain
			s.mu.Unlock()
			if hook != nil {
				hook(err)
			}
		}
	}()
	return nil
}

// maintainOnce runs one panic-isolated maintenance pass.
func (s *Server) maintainOnce(ix *Index) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{Job: "index-maintenance", Value: r, Stack: debug.Stack()}
		}
	}()
	return ix.Maintain()
}

// Shutdown drains the server: new and queued jobs are rejected with
// ErrServerClosed, running jobs continue until they finish, hit their
// deadlines, or — once ctx is done — are cancelled. After every job has
// returned, what the shuffle's free lists hold is left to the collector
// (spill.DropPooled) and spill and checkpoint temp files are swept.
// Idempotent; safe to call concurrently with Run.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drain) })
	s.gate.Close()

	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case <-done:
	case <-ctxDone:
		// Out of patience: cancel every running job, then wait for the
		// engines to unwind (prompt, thanks to mid-task cancellation).
		s.mu.Lock()
		for _, cancel := range s.cancels {
			cancel()
		}
		s.mu.Unlock()
		<-done
	}
	spill.DropPooled()
	return s.sweep()
}

// sweep removes serving temp state: the private spill root (or leftover
// fsjoin-spill-* files under a caller-provided one) and in-flight
// checkpoint temp files. Durable checkpoints are kept.
func (s *Server) sweep() error {
	var firstErr error
	if s.ownSpill {
		if err := os.RemoveAll(s.spillRoot); err != nil && firstErr == nil {
			firstErr = err
		}
	} else {
		entries, err := os.ReadDir(s.spillRoot)
		if err != nil && firstErr == nil && !os.IsNotExist(err) {
			firstErr = err
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "fsjoin-spill-") {
				os.RemoveAll(filepath.Join(s.spillRoot, e.Name()))
			}
		}
	}
	if s.opt.CheckpointRoot != "" {
		if err := frame.SweepTemps(s.opt.CheckpointRoot, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats snapshots the server's admission and completion counters.
func (s *Server) Stats() ServerStats {
	g := s.gate.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{
		Admitted: g.Admitted, Shed: g.Shed, TimedOut: g.TimedOut,
		Cancelled: g.Cancelled,
		Completed: s.completed, Failed: s.failed, Panicked: s.panicked,
		MaintenanceFailed: s.maintFailed, MaintenancePanicked: s.maintPanicked,
		Running: g.Running, Queued: g.Queued, PeakQueued: g.PeakQueued,
		MemoryInUse: g.MemoryInUse,
	}
}

// translateSched maps the scheduler's typed failures onto the public
// sentinels, preserving the detail text.
func translateSched(err error) error {
	switch {
	case errors.Is(err, sched.ErrOverloaded):
		return fmt.Errorf("%w: %v", ErrOverloaded, err)
	case errors.Is(err, sched.ErrQueueTimeout):
		return ErrQueueTimeout
	case errors.Is(err, sched.ErrClosed):
		return ErrServerClosed
	default:
		return err // context cancellation / deadline from the queue wait
	}
}

// checkpointKey matches a job key that, once "." and ".." are ruled out,
// names a directory inside ServerOptions.CheckpointRoot and no other key's.
var checkpointKey = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)
