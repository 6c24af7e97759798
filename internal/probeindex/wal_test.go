package probeindex

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fsjoin/internal/filters"
	"fsjoin/internal/frame"
	"fsjoin/internal/similarity"
	"fsjoin/internal/testutil"
)

// durOpt is the fixed serving configuration durability tests run under.
var durOpt = Options{Fn: similarity.Jaccard, Theta: 0.7, Bitmap: filters.BitmapConfig{Mode: filters.BitmapOff}}

// buildDurable builds a small corpus index, persists it into dir and
// returns it with the rid→token-set oracle of its live records.
func buildDurable(t *testing.T, dir string, d DurableOptions) (*Index, map[int32][]string) {
	t.Helper()
	c := testutil.RandomCollection(40, 25, 10, 91)
	ix, err := Build(c, tokenName, durOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Persist(dir, d); err != nil {
		t.Fatal(err)
	}
	live := map[int32][]string{}
	for _, r := range c.Records {
		live[r.RID] = dedupStrings(names(r.Tokens))
	}
	return ix, live
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// liveSets reads the recovered index's logical state: every live record's
// rid and token strings (ranks decoded through the token table).
func liveSets(ix *Index) map[int32][]string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := map[int32][]string{}
	for s := range ix.recRID {
		if ix.dead[s] {
			continue
		}
		var toks []string
		for _, r := range ix.slotToks(s) {
			toks = append(toks, ix.tokStr[r])
		}
		out[ix.recRID[s]] = toks
	}
	for li := range ix.log {
		if ix.log[li].dead {
			continue
		}
		var toks []string
		for _, r := range ix.log[li].toks {
			toks = append(toks, ix.tokStr[r])
		}
		out[ix.log[li].rid] = toks
	}
	return out
}

// assertSameState fails unless two rid→token-set maps hold the same sets
// (order-insensitive inside a record).
func assertSameState(t *testing.T, label string, got, want map[int32][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d live records, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for rid, ws := range want {
		gs, ok := got[rid]
		if !ok {
			t.Fatalf("%s: rid %d missing", label, rid)
		}
		wset := map[string]bool{}
		for _, s := range ws {
			wset[s] = true
		}
		if len(gs) != len(wset) {
			t.Fatalf("%s: rid %d has %d tokens, want %d (%v vs %v)", label, rid, len(gs), len(wset), gs, ws)
		}
		for _, s := range gs {
			if !wset[s] {
				t.Fatalf("%s: rid %d has unexpected token %q", label, rid, s)
			}
		}
	}
}

// TestWALReplayRoundTrip: durable mutations survive a reopen exactly.
func TestWALReplayRoundTrip(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncInterval, SyncNever} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			ix, live := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: mode, Interval: time.Hour}})
			for i := 0; i < 12; i++ {
				rid, err := ix.Insert([]string{fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i+1), "shared"})
				if err != nil {
					t.Fatal(err)
				}
				live[rid] = []string{fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i+1), "shared"}
			}
			for _, rid := range []int32{0, 3, 41} {
				if err := ix.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(live, rid)
			}
			// Close flushes even under interval/never sync.
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			ld, err := Load(dir, durOpt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameState(t, mode.String(), liveSets(ld), live)
			st := ld.Stats()
			if st.WALReplayed != 15 {
				t.Fatalf("WALReplayed=%d want 15", st.WALReplayed)
			}
			if st.WALTruncatedFrames != 0 {
				t.Fatalf("WALTruncatedFrames=%d want 0", st.WALTruncatedFrames)
			}
			// Probe answers over the recovered state match brute force.
			for rid := range live {
				got, err := ld.ProbeRecord(rid)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleProbe(live, live[rid], durOpt.Fn, durOpt.Theta, rid, true)
				assertMatches(t, fmt.Sprintf("recovered rid %d", rid), got, want)
			}
		})
	}
}

// TestWALTornTailTruncated: a torn final frame is dropped, every earlier
// acknowledged mutation survives, and the file is repaired in place.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	ix, live := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}})
	var rids []int32
	for i := 0; i < 8; i++ {
		rid, err := ix.Insert([]string{fmt.Sprintf("torn%d", i), "x"})
		if err != nil {
			t.Fatal(err)
		}
		live[rid] = []string{fmt.Sprintf("torn%d", i), "x"}
		rids = append(rids, rid)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	path := walPath(dir, ix.gen)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 3 bytes.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o600); err != nil {
		t.Fatal(err)
	}
	delete(live, rids[len(rids)-1])

	ld, err := Load(dir, durOpt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "torn tail", liveSets(ld), live)
	st := ld.Stats()
	if st.WALReplayed != 7 || st.WALTruncatedFrames != 1 {
		t.Fatalf("replayed=%d truncated=%d want 7/1", st.WALReplayed, st.WALTruncatedFrames)
	}
	// The truncate repaired the file: a second load sees a clean tail.
	ld2, err := Load(dir, durOpt)
	if err != nil {
		t.Fatal(err)
	}
	if st2 := ld2.Stats(); st2.WALTruncatedFrames != 0 || st2.WALReplayed != 7 {
		t.Fatalf("second load replayed=%d truncated=%d want 7/0", st2.WALReplayed, st2.WALTruncatedFrames)
	}
}

// TestWALMidCorruptionStopsReplay: a bit flip in the middle of the log
// truncates there — the prefix is recovered, the suffix (even if it holds
// decodable frames) is never trusted.
func TestWALMidCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	ix, live := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}})
	headerEnd := int64(0)
	if fi, err := os.Stat(walPath(dir, ix.gen)); err == nil {
		headerEnd = fi.Size()
	}
	var sizes []int64
	var rids []int32
	for i := 0; i < 6; i++ {
		rid, err := ix.Insert([]string{fmt.Sprintf("mid%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		live[rid] = []string{fmt.Sprintf("mid%d", i)}
		fi, err := os.Stat(walPath(dir, ix.gen))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside frame 3 (offsets sizes[2]..sizes[3]).
	path := walPath(dir, ix.gen)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[(sizes[2]+sizes[3])/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids[3:] {
		delete(live, rid)
	}
	_ = headerEnd

	ld, err := Load(dir, durOpt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "mid corruption", liveSets(ld), live)
	if st := ld.Stats(); st.WALReplayed != 3 || st.WALTruncatedFrames != 1 {
		t.Fatalf("replayed=%d truncated=%d want 3/1", st.WALReplayed, st.WALTruncatedFrames)
	}
}

// TestWALForeignHeaderIgnored: a log whose header binds to another
// generation or configuration is ignored wholesale — the snapshot still
// loads, and the rejection is counted.
func TestWALForeignHeaderIgnored(t *testing.T) {
	dir := t.TempDir()
	ix, live := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}})
	if _, err := ix.Insert([]string{"ghost"}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the log with one whose header claims another generation.
	path := walPath(dir, ix.gen)
	foreign, err := frame.CreateLog(dir, filepath.Base(path), walBinding(ix.gen+7, fingerprint(ix.fn, ix.theta, ix.bitmap)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.Append(encodeInsert(int32(len(live)), []string{"ghost"})); err != nil {
		t.Fatal(err)
	}
	foreign.Close()
	before := LoadRejects()["index.load.rejects.wal"]
	ld, err := Load(dir, durOpt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "foreign header", liveSets(ld), live)
	if after := LoadRejects()["index.load.rejects.wal"]; after != before+1 {
		t.Fatalf("index.load.rejects.wal %d -> %d, want +1", before, after)
	}
}

// TestWALErrorPoisonsLog: an injected write/sync failure fails the
// mutation loudly with the typed error, leaves the index unchanged, and
// poisons every later mutation until the index is reopened — while reads
// keep working and the durable prefix stays recoverable.
func TestWALErrorPoisonsLog(t *testing.T) {
	for _, failOp := range []string{"write", "sync"} {
		t.Run(failOp, func(t *testing.T) {
			dir := t.TempDir()
			ix, live := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}})
			rid, err := ix.Insert([]string{"pre-failure"})
			if err != nil {
				t.Fatal(err)
			}
			live[rid] = []string{"pre-failure"}

			boom := errors.New("disk on fire")
			frame.SetFailHook(func(op, _ string) error {
				if op == failOp {
					return boom
				}
				return nil
			})
			defer frame.SetFailHook(nil)

			lenBefore := ix.Len()
			_, err = ix.Insert([]string{"lost"})
			var werr *WALError
			if !errors.As(err, &werr) || !errors.Is(err, boom) {
				t.Fatalf("Insert error %v is not a *WALError wrapping the cause", err)
			}
			if ix.Len() != lenBefore {
				t.Fatalf("failed insert changed Len %d -> %d", lenBefore, ix.Len())
			}
			// The log is poisoned: even with the fault healed, mutations
			// keep failing until reopen.
			frame.SetFailHook(nil)
			if _, err := ix.Insert([]string{"after"}); !errors.As(err, &werr) || !errors.Is(err, errWALBroken) {
				t.Fatalf("post-failure insert error %v does not report the broken log", err)
			}
			if err := ix.Delete(rid); !errors.As(err, &werr) {
				t.Fatalf("post-failure delete error %v is not a *WALError", err)
			}
			// Reads still serve.
			if got := ix.Probe([]string{"pre-failure"}); len(got) != 1 || got[0].RID != rid {
				t.Fatalf("probe during poisoned log: %v", got)
			}
			ix.Close()

			// Recovery yields exactly the acknowledged prefix.
			ld, err := Load(dir, durOpt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameState(t, "post-poison recovery", liveSets(ld), live)
		})
	}
}

// TestWALGroupCommitFlush: under SyncInterval, Maintain flushes pending
// bytes once the window elapses, and the synced-bytes counter advances.
func TestWALGroupCommitFlush(t *testing.T) {
	dir := t.TempDir()
	ix, _ := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: SyncInterval, Interval: time.Millisecond}})
	if _, err := ix.Insert([]string{"grouped"}); err != nil {
		t.Fatal(err)
	}
	ix.mu.Lock()
	pending := ix.wal.pending
	ix.mu.Unlock()
	if pending == 0 {
		t.Fatal("append was synced eagerly under interval mode")
	}
	time.Sleep(2 * time.Millisecond)
	if err := ix.Maintain(); err != nil {
		t.Fatal(err)
	}
	ix.mu.Lock()
	pending = ix.wal.pending
	ix.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d bytes still pending after Maintain", pending)
	}
	if st := ix.Stats(); st.WALSyncedBytes == 0 {
		t.Fatal("WALSyncedBytes did not advance")
	}
	ix.Close()
}

// TestPersistValidation: bad policies and double attachment are refused.
func TestPersistValidation(t *testing.T) {
	dir := t.TempDir()
	ix, _ := buildDurable(t, dir, DurableOptions{})
	if err := ix.Persist(dir, DurableOptions{}); err == nil {
		t.Fatal("double Persist accepted")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Persist(dir, DurableOptions{Sync: SyncPolicy{Mode: SyncMode(9)}}); err == nil {
		t.Fatal("bogus sync mode accepted")
	}
	if err := ix.Persist(dir, DurableOptions{AutoCompact: AutoCompactPolicy{LogFraction: -1}}); err == nil {
		t.Fatal("negative auto-compact policy accepted")
	}
	// Save on a durable index is refused; Compact checkpoints it instead.
	if err := ix.Persist(dir, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err == nil {
		t.Fatal("Save on durable index accepted")
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	ix.Close()
}

// TestWALCreateSyncFailure: creating a log is covered by the same failure
// hook as appending to one. A log whose header never reached disk is not
// returned as durable: the caller gets *WALError{Op: "create"}, no wal.g*
// file (and no temp) is left, a first Persist leaves the directory empty,
// and a checkpoint leaves the old generation authoritative.
func TestWALCreateSyncFailure(t *testing.T) {
	boom := errors.New("fsync says no")
	failWALSync := func(op, name string) error {
		if op == "sync" && strings.HasPrefix(name, "wal.g") {
			return boom
		}
		return nil
	}
	assertCreateError := func(err error) {
		t.Helper()
		var werr *WALError
		if !errors.As(err, &werr) || werr.Op != "create" || !errors.Is(err, boom) {
			t.Fatalf("error %v is not a *WALError{Op: create} wrapping the cause", err)
		}
	}
	fileNames := func(dir string) []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}

	t.Run("persist", func(t *testing.T) {
		dir := t.TempDir()
		ix, err := Build(testutil.RandomCollection(10, 10, 5, 3), tokenName, durOpt)
		if err != nil {
			t.Fatal(err)
		}
		frame.SetFailHook(failWALSync)
		defer frame.SetFailHook(nil)
		assertCreateError(ix.Persist(dir, DurableOptions{}))
		if got := fileNames(dir); len(got) != 0 {
			t.Fatalf("failed Persist left %v behind", got)
		}
		if ix.Durable() {
			t.Fatal("index reports durable after a failed Persist")
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		ix, live := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}})
		rid, err := ix.Insert([]string{"before"})
		if err != nil {
			t.Fatal(err)
		}
		live[rid] = []string{"before"}
		gen := ix.gen
		before := fileNames(dir)

		frame.SetFailHook(failWALSync)
		defer frame.SetFailHook(nil)
		assertCreateError(ix.Compact())
		frame.SetFailHook(nil)

		if got := fileNames(dir); !reflect.DeepEqual(got, before) {
			t.Fatalf("failed checkpoint changed the directory: %v -> %v", before, got)
		}
		if ix.gen != gen {
			t.Fatalf("generation moved %d -> %d on a failed checkpoint", gen, ix.gen)
		}
		// The old generation still takes, and recovers, acknowledged writes.
		if rid, err = ix.Insert([]string{"after"}); err != nil {
			t.Fatalf("insert after failed checkpoint: %v", err)
		}
		live[rid] = []string{"after"}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		ld, err := Load(dir, durOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameState(t, "after failed checkpoint", liveSets(ld), live)
	})
}
