package fsjoin

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// probeFixture builds a server, a corpus collection and its probe index.
func probeFixture(t *testing.T, so ServerOptions) (*Server, *Collection, *Index, []string) {
	t.Helper()
	srv, err := NewServer(so)
	if err != nil {
		t.Fatal(err)
	}
	texts := corpus(60, 14)
	coll := NewDictionary().NewTextCollection(texts)
	ix, err := BuildIndex(coll, IndexOptions{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return srv, coll, ix, texts
}

// TestServerProbeMatchesDirect: a probe served through the admission
// machinery returns exactly what the index returns directly, and counts as
// a completed job.
func TestServerProbeMatchesDirect(t *testing.T) {
	srv, _, ix, texts := probeFixture(t, ServerOptions{MemoryBudget: 1 << 20})
	defer srv.Shutdown(context.Background())
	for i, tx := range texts[:10] {
		set := strings.Fields(tx)
		got, err := srv.Probe(context.Background(), ix, set)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, fmt.Sprintf("probe %d", i), got, ix.Probe(set))
	}
	sets := make([][]string, 5)
	for i := range sets {
		sets[i] = strings.Fields(texts[i])
	}
	batch, err := srv.ProbeBatch(context.Background(), ix, sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range batch {
		assertSameMatches(t, fmt.Sprintf("batch %d", i), got, ix.Probe(sets[i]))
	}
	st := srv.Stats()
	if st.Completed != 11 {
		t.Fatalf("Completed = %d, want 11 (10 probes + 1 batch)", st.Completed)
	}
	if st.MemoryInUse != 0 {
		t.Fatalf("MemoryInUse = %d after probes returned", st.MemoryInUse)
	}
}

// TestServerProbeConcurrent hammers one index from many goroutines through
// the gate while a batch join runs — exercising the shared-pool accounting
// and the index's read path together.
func TestServerProbeConcurrent(t *testing.T) {
	srv, coll, ix, texts := probeFixture(t, ServerOptions{MemoryBudget: 4 << 20, MaxConcurrent: 8})
	defer srv.Shutdown(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.SelfJoin(context.Background(), coll, Options{Threshold: 0.7}); err != nil {
			t.Errorf("batch join: %v", err)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				set := strings.Fields(texts[(g*17+i)%len(texts)])
				if _, err := srv.Probe(context.Background(), ix, set); err != nil {
					t.Errorf("probe: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := srv.Stats(); st.MemoryInUse != 0 {
		t.Fatalf("MemoryInUse = %d after drain", st.MemoryInUse)
	}
}

// TestServerProbeSheddingAndShutdown pins the typed failures: a probe
// arriving at a full, queue-less server is shed with ErrOverloaded; a
// probe after Shutdown gets ErrServerClosed; a nil index is rejected
// outright.
func TestServerProbeSheddingAndShutdown(t *testing.T) {
	srv, _, ix, texts := probeFixture(t, ServerOptions{
		MemoryBudget: 1 << 16, MaxConcurrent: 1, MaxQueue: -1,
	})
	set := strings.Fields(texts[0])

	var running sync.WaitGroup
	release := blockingJob(t, srv, &running)
	if _, err := srv.Probe(context.Background(), ix, set); !errorsIsAny(err, ErrOverloaded) {
		t.Fatalf("probe at full server: err = %v, want ErrOverloaded", err)
	}
	release()
	running.Wait()

	if _, err := srv.ProbeBatch(context.Background(), nil, [][]string{set}); err == nil {
		t.Fatal("nil index accepted")
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Probe(context.Background(), ix, set); !errorsIsAny(err, ErrServerClosed) {
		t.Fatalf("probe after shutdown: err = %v, want ErrServerClosed", err)
	}
}

// TestServerShutdownCancelsProbeBatch: a probe batch is a running job like
// any other, so a Shutdown out of patience cancels it between sets and the
// batch returns the cancellation instead of finishing.
func TestServerShutdownCancelsProbeBatch(t *testing.T) {
	srv, _, ix, texts := probeFixture(t, ServerOptions{MemoryBudget: 1 << 20, MaxConcurrent: 1})
	sets := make([][]string, 300_000)
	for i := range sets {
		sets[i] = strings.Fields(texts[i%len(texts)])
	}
	batchErr := make(chan error, 1)
	go func() {
		_, err := srv.ProbeBatch(context.Background(), ix, sets)
		batchErr <- err
	}()
	for srv.Stats().Running == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Wait for the batch's cancel to be registered; bounded, so a batch
	// that registers none still meets the Shutdown.
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		srv.mu.Lock()
		n := len(srv.cancels)
		srv.mu.Unlock()
		if n > 0 {
			break
		}
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(expired); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-batchErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("running batch err = %v, want context.Canceled", err)
	}
}

func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
