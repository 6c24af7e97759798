package fsjoin

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"fsjoin/internal/mapreduce"
)

// TestConcurrentJoinsSharedOptions proves the public API never mutates a
// caller-owned Options value: eight goroutines join through one shared
// Options (chaos enabled, so the fault plumbing is exercised too), every
// result matches the sequential run, and the value is bit-identical
// afterwards. Run it under -race (make race), which is where a hidden
// mutation would actually trip.
func TestConcurrentJoinsSharedOptions(t *testing.T) {
	texts := corpus(50, 11)
	shared := Options{Threshold: 0.7, Algorithm: FSJoin, Nodes: 3, Fault: seededChaos(424243, 0.3)}
	shared.Fault.MaxAttempts = 4
	before := shared
	want, err := SelfJoinStrings(texts, shared)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = SelfJoinStrings(texts, shared)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w].Pairs, want.Pairs) {
			t.Fatalf("worker %d: pairs differ from sequential run", w)
		}
	}
	if !reflect.DeepEqual(shared, before) {
		t.Fatalf("Options mutated by concurrent joins:\n before %+v\n after  %+v", before, shared)
	}
}

// deterministicCrash is a scripted injector: map task 0 panics with the
// same message on every attempt, which the engine classifies as a
// deterministic failure and stops retrying.
type deterministicCrash struct{}

func (deterministicCrash) Decide(_ string, phase mapreduce.Phase, task, attempt int) mapreduce.Fault {
	if phase == mapreduce.PhaseMap && task == 0 {
		return mapreduce.Fault{Kind: mapreduce.FaultPanic, Msg: "injected deterministic crash"}
	}
	return mapreduce.Fault{}
}

// TestJoinSurfacesTaskError pins the typed-error satellite end to end: a
// task failure inside the engine reaches Join's caller as a *TaskError
// carrying job, phase and task metadata — no string parsing, no raw
// panic escaping the library.
func TestJoinSurfacesTaskError(t *testing.T) {
	opts := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	opts.Fault.injector = deterministicCrash{}
	_, err := SelfJoinStrings(corpus(30, 17), opts)
	if err == nil {
		t.Fatal("join with an always-crashing map task succeeded")
	}
	var te *mapreduce.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a *mapreduce.TaskError in the chain", err)
	}
	if te.Phase != mapreduce.PhaseMap || te.Task != 0 || te.Job == "" {
		t.Fatalf("TaskError = %+v, want map task 0 with a job name", te)
	}
}
