package mapreduce

import (
	"context"
	"errors"
	"fmt"

	"fsjoin/internal/spill"
)

// TaskError is the typed failure of one task: which job, phase and task
// index failed, and the underlying cause. Every task-boundary failure the
// engine reports — exhausted retries, shuffle spill or fetch breakage,
// mid-task cancellation — is wrapped in one, so callers as far up as the
// public Join API can recover the metadata with errors.As instead of
// parsing strings, and errors.Is still reaches the cause (notably
// context.Canceled / context.DeadlineExceeded from cancelled joins).
type TaskError struct {
	// Job is the job name (Config.Name).
	Job string
	// Phase is the failing phase (map or reduce; combine faults surface as
	// part of their map attempt, as in Hadoop).
	Phase Phase
	// Task is the task index within the phase.
	Task int
	// Err is the underlying failure.
	Err error
}

// Error implements error, preserving the engine's historical message
// shape ("mapreduce: job %q map task %d: ...").
func (e *TaskError) Error() string {
	return fmt.Sprintf("mapreduce: job %q %s task %d: %v", e.Job, e.Phase, e.Task, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *TaskError) Unwrap() error { return e.Err }

// taskErr wraps one task-boundary failure, collapsing nested TaskErrors
// (a cancellation panic already carries its own metadata) so a failure is
// tagged with job/phase/task exactly once.
func taskErr(job string, phase Phase, task int, err error) error {
	var te *TaskError
	if errors.As(err, &te) {
		return err
	}
	return &TaskError{Job: job, Phase: phase, Task: task, Err: err}
}

// enginePanic carries an engine-internal failure (spill I/O, shuffle
// fetch, partitioner contract violations, mid-task cancellation) across a
// panic so guard can return it as an error with its errors.Is/As chain
// intact. User-code panics, by contrast, stay opaque and become "task
// failed" errors — the engine makes no claims about their values.
type enginePanic struct{ err error }

// Error implements error (tests that recover the panic value directly can
// treat it as one).
func (p *enginePanic) Error() string { return p.err.Error() }

// Unwrap exposes the carried failure.
func (p *enginePanic) Unwrap() error { return p.err }

// incurable reports whether err is a failure retrying cannot cure and skip
// mode must not bisect: a context cancellation or deadline expiry, which
// stops every attempt alike, or a key longer than spill.MaxKeyLen, which
// an attempt emits again on every try, whichever records it is given.
func incurable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, spill.ErrLongKey)
}

// cancelStride is how many CheckCancel calls pass between context polls —
// frequent enough that deadlines fire mid-stage on large fragments, cheap
// enough (one masked increment per call) to sit in kernel inner loops.
const cancelStride = 1024

// CheckCancel is the bounded-stride cancellation point for long-running
// task bodies (the fragment-join kernels, big reduce groups): every
// cancelStride calls it polls the job context and, when cancelled, aborts
// the attempt by panicking with the context's error. The attempt loop
// recognises cancellation and returns it immediately — no retries, no
// skip-mode bisection — so deadlines fire mid-stage instead of waiting
// for the next task boundary. No-op for jobs without a context.
func (c *Context) CheckCancel() {
	if c.Job.Context == nil {
		return
	}
	c.polls++
	if c.polls&(cancelStride-1) != 0 {
		return
	}
	select {
	case <-c.Job.Context.Done():
		panic(&enginePanic{err: c.Job.Context.Err()})
	default:
	}
}
