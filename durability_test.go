package fsjoin

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/probeindex"
	"fsjoin/internal/similarity"
)

// TestDurableIndexRoundTrip drives the public durability API end to end:
// Persist, acknowledged mutations, Close, LoadIndex — the recovered index
// must answer probes exactly like an in-memory twin that saw the same
// mutations, and the durability counters must reflect the history.
func TestDurableIndexRoundTrip(t *testing.T) {
	texts := corpus(40, 5)
	opt := IndexOptions{Threshold: 0.7}
	build := func() *Index {
		ix, err := BuildIndex(NewDictionary().NewTextCollection(texts), opt)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix, twin := build(), build()

	dir := t.TempDir()
	if err := ix.Persist(dir, Durability{WALSync: WALSyncAlways}); err != nil {
		t.Fatal(err)
	}
	if !ix.Durable() || twin.Durable() {
		t.Fatal("Durable() disagrees with Persist state")
	}

	mutate := func(x *Index) []int {
		var rids []int
		for i := 0; i < 6; i++ {
			set := strings.Fields(fmt.Sprintf("durable token%d token%d shared", i, i+1))
			rid, err := x.Insert(set)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		for _, rid := range []int{0, 7, rids[1]} {
			if err := x.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
		return rids
	}
	if r1, r2 := mutate(ix), mutate(twin); r1[0] != r2[0] {
		t.Fatalf("rid assignment diverged: %v vs %v", r1, r2)
	}
	if st := ix.Stats(); st.WALAppends != 9 || st.Generation != 1 {
		t.Fatalf("WALAppends=%d Generation=%d, want 9/1", st.WALAppends, st.Generation)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix.Durable() {
		t.Fatal("still durable after Close")
	}

	ld, err := LoadIndex(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := ld.Stats(); st.WALReplayed != 9 || st.WALTruncatedFrames != 0 {
		t.Fatalf("WALReplayed=%d WALTruncatedFrames=%d, want 9/0", st.WALReplayed, st.WALTruncatedFrames)
	}
	if ld.Len() != twin.Len() {
		t.Fatalf("recovered Len %d, twin %d", ld.Len(), twin.Len())
	}
	for _, q := range [][]string{
		strings.Fields(texts[3]),
		{"durable", "token2", "token3", "shared"},
		{"shared"},
	} {
		assertSameMatches(t, fmt.Sprintf("probe %v", q), ld.Probe(q), twin.Probe(q))
	}

	// Loading under another threshold is a stale config, not corruption:
	// the error wraps ErrNoIndex and the reject counter ticks.
	before := IndexLoadRejects()["index.load.rejects.stale"]
	if _, err := LoadIndex(dir, IndexOptions{Threshold: 0.9}); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("stale load error = %v, want ErrNoIndex", err)
	}
	if after := IndexLoadRejects()["index.load.rejects.stale"]; after != before+1 {
		t.Fatalf("stale reject counter %d -> %d, want +1", before, after)
	}
}

// TestServerMaintainIndex: the server's supervised maintenance goroutine
// flushes and auto-compacts a durable index in the background, stops on
// drain, and refuses new registrations after shutdown.
func TestServerMaintainIndex(t *testing.T) {
	srv, err := NewServer(ServerOptions{MemoryBudget: 8 << 20, MaintenanceInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var passes atomic.Int64
	srv.testHookMaintain = func(err error) {
		if err != nil {
			t.Errorf("maintenance pass failed: %v", err)
		}
		passes.Add(1)
	}

	ix, err := BuildIndex(NewDictionary().NewTextCollection(corpus(30, 5)), IndexOptions{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d := Durability{
		WALSync:     WALSyncInterval,
		AutoCompact: AutoCompact{MaxLogRecords: 4},
	}
	if err := ix.Persist(dir, d); err != nil {
		t.Fatal(err)
	}
	if err := srv.MaintainIndex(ix); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if _, err := ix.Insert([]string{fmt.Sprintf("bg%d", i), "bg-shared"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ix.Stats().AutoCompactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintenance goroutine never auto-compacted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The goroutine stopped on drain: no further passes fire.
	n := passes.Load()
	time.Sleep(20 * time.Millisecond)
	if m := passes.Load(); m != n {
		t.Fatalf("maintenance still running after Shutdown (%d -> %d passes)", n, m)
	}
	if st := srv.Stats(); st.MaintenanceFailed != 0 || st.MaintenancePanicked != 0 {
		t.Fatalf("failed=%d panicked=%d, want 0/0", st.MaintenanceFailed, st.MaintenancePanicked)
	}
	if err := srv.MaintainIndex(ix); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("MaintainIndex after Shutdown = %v, want ErrServerClosed", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadIndex(dir, IndexOptions{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if ld.Len() != ix.Len() {
		t.Fatalf("reload lost records across auto-compactions: %d != %d", ld.Len(), ix.Len())
	}
}

// TestServerMaintainPanicIsolated: a panicking maintenance pass is
// recovered into a *JobError, counted, and does not kill the loop or the
// server.
func TestServerMaintainPanicIsolated(t *testing.T) {
	srv, err := NewServer(ServerOptions{MemoryBudget: 8 << 20, MaintenanceInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	saw := make(chan error, 16)
	srv.testHookMaintain = func(err error) {
		select {
		case saw <- err:
		default:
		}
	}
	// An Index with no internal state makes every pass panic.
	if err := srv.MaintainIndex(&Index{}); err != nil {
		t.Fatal(err)
	}
	var got error
	select {
	case got = <-saw:
	case <-time.After(5 * time.Second):
		t.Fatal("no maintenance pass observed")
	}
	var jerr *JobError
	if !errors.As(got, &jerr) || jerr.Job != "index-maintenance" {
		t.Fatalf("pass error = %v, want *JobError for index-maintenance", got)
	}
	// The loop survived its own panic: more passes keep arriving.
	select {
	case <-saw:
	case <-time.After(5 * time.Second):
		t.Fatal("maintenance loop died after the panic")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.MaintenancePanicked == 0 || st.MaintenanceFailed < st.MaintenancePanicked {
		t.Fatalf("failed=%d panicked=%d, want panicked ≥ 1 and failed ≥ panicked", st.MaintenanceFailed, st.MaintenancePanicked)
	}
}

// TestPreviousFormatsRefused: files written before the framed-file format
// (testdata/legacy, produced by the last commit that wrote FSCKPT01
// checkpoints and FSWAL001 logs) are refused cleanly, never misread: a
// checkpoint reads as Corrupt and is recomputed, an index directory is "no
// usable index: corrupt snapshot" (rebuild), and a log next to a valid
// snapshot is rejected whole.
func TestPreviousFormatsRefused(t *testing.T) {
	legacy := func(t *testing.T, name, dst string) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	iopt := probeindex.Options{Fn: similarity.Jaccard, Theta: 0.7}
	for _, tc := range []struct {
		magic string
		check func(t *testing.T, dir string)
	}{
		{"FSCKPT01", func(t *testing.T, dir string) {
			legacy(t, "stage-001-legacy.ckpt", filepath.Join(dir, "stage-001-legacy.ckpt"))
			st, err := checkpoint.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if snap, status := st.Load(1, "legacy", "legacy-fp"); status != checkpoint.Corrupt || snap != nil {
				t.Fatalf("Load = %v, %v; want corrupt", snap, status)
			}
			if _, status := st.Load(1, "legacy", "legacy-fp"); status != checkpoint.Miss {
				t.Fatalf("the refused file was left in place: second Load = %v", status)
			}
		}},
		{"FSCKPT01 (index snapshot)", func(t *testing.T, dir string) {
			legacy(t, "index/stage-001-index.ckpt", filepath.Join(dir, "stage-001-index.ckpt"))
			legacy(t, "index/wal.g00000001", filepath.Join(dir, "wal.g00000001"))
			before := probeindex.LoadRejects()["index.load.rejects.corrupt"]
			_, err := probeindex.Load(dir, iopt)
			if !errors.Is(err, probeindex.ErrNoIndex) || !errors.Is(err, probeindex.ErrCorruptSnapshot) {
				t.Fatalf("Load = %v, want ErrNoIndex wrapping ErrCorruptSnapshot", err)
			}
			if after := probeindex.LoadRejects()["index.load.rejects.corrupt"]; after != before+1 {
				t.Fatalf("index.load.rejects.corrupt %d -> %d, want +1", before, after)
			}
			if _, err := LoadIndex(dir, IndexOptions{Threshold: 0.7}); !errors.Is(err, ErrNoIndex) {
				t.Fatalf("LoadIndex = %v, want ErrNoIndex", err)
			}
		}},
		{"FSWAL001", func(t *testing.T, dir string) {
			ix, err := BuildIndex(NewDictionary().NewTextCollection(corpus(20, 5)), IndexOptions{Threshold: 0.7})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Persist(dir, Durability{WALSync: WALSyncAlways}); err != nil {
				t.Fatal(err)
			}
			want := ix.Len()
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			legacy(t, "index/wal.g00000001", filepath.Join(dir, "wal.g00000001"))
			before := probeindex.LoadRejects()["index.load.rejects.wal"]
			ld, err := LoadIndex(dir, IndexOptions{Threshold: 0.7})
			if err != nil {
				t.Fatalf("a rejected log must not cost the snapshot: %v", err)
			}
			if after := probeindex.LoadRejects()["index.load.rejects.wal"]; after != before+1 {
				t.Fatalf("index.load.rejects.wal %d -> %d, want +1 (ErrWALRejected)", before, after)
			}
			if st := ld.Stats(); ld.Len() != want || st.WALReplayed != 0 {
				t.Fatalf("Len=%d WALReplayed=%d, want %d/0: some of the old log was replayed", ld.Len(), st.WALReplayed, want)
			}
		}},
	} {
		t.Run(tc.magic, func(t *testing.T) { tc.check(t, t.TempDir()) })
	}
}
