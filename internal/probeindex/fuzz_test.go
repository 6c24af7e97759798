package probeindex

import (
	"os"
	"testing"

	"fsjoin/internal/filters"
	"fsjoin/internal/similarity"
	"fsjoin/internal/testutil"
)

// fuzzOpt is the fixed serving configuration the fuzz target loads under.
var fuzzOpt = Options{Fn: similarity.Jaccard, Theta: 0.8, Bitmap: filters.BitmapConfig{Mode: filters.BitmapOn, Width: 64}}

// ckptPath is where checkpoint.Store materialises the index file: a Save
// into an empty directory writes generation 1.
func ckptPath(dir string) string {
	return snapshotPath(dir, 1)
}

// validIndexFile renders one real saved index to seed the corpus.
func validIndexFile(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	ix, err := Build(testutil.RandomCollection(30, 20, 10, 41), tokenName, fuzzOpt)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ix.Insert([]string{"x", "y", "z"}); err != nil {
		tb.Fatal(err)
	}
	if err := ix.Delete(0); err != nil {
		tb.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(ckptPath(dir))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzIndexCodec feeds arbitrary bytes to the index loader: truncated,
// bit-flipped or wholly fabricated files must either load into a servable
// index or fail with an error — never panic. (What a mutated envelope does
// is frame.FuzzFrame's property; this target is about what sits on top:
// the checkpoint manifest, the records, the restore invariants.) Whatever loads must survive a probe and a save/load
// round-trip.
func FuzzIndexCodec(f *testing.F) {
	valid := validIndexFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FSCKPT01 the previous format"))
	f.Add([]byte("FSFRAME1 not really"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(ckptPath(dir), data, 0o600); err != nil {
			t.Skip()
		}
		ix, err := Load(dir, fuzzOpt)
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		// Whatever passed validation must behave like an index.
		ix.Probe([]string{"x", "y", "z"})
		if ix.Len() > 0 {
			rid, err := ix.Insert([]string{"q1", "q2"})
			if err != nil {
				t.Fatalf("insert into loaded index: %v", err)
			}
			if err := ix.Delete(rid); err != nil {
				t.Fatalf("delete of fresh insert: %v", err)
			}
		}
		dir2 := t.TempDir()
		if err := ix.Save(dir2); err != nil {
			t.Fatalf("save of loaded index: %v", err)
		}
		ix2, err := Load(dir2, fuzzOpt)
		if err != nil {
			t.Fatalf("round-trip load: %v", err)
		}
		if ix2.Len() != ix.Len() {
			t.Fatalf("round-trip Len %d != %d", ix2.Len(), ix.Len())
		}
	})
}

// validWALSeed renders one real snapshot + WAL pair (the WAL holding two
// inserts and a delete) to seed the WAL fuzz corpus.
func validWALSeed(tb testing.TB) (snap, walRaw []byte) {
	tb.Helper()
	dir := tb.TempDir()
	ix, err := Build(testutil.RandomCollection(20, 15, 8, 17), tokenName, fuzzOpt)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ix.Persist(dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}}); err != nil {
		tb.Fatal(err)
	}
	if _, err := ix.Insert([]string{"a", "b"}); err != nil {
		tb.Fatal(err)
	}
	if _, err := ix.Insert([]string{"b", "c", "d"}); err != nil {
		tb.Fatal(err)
	}
	if err := ix.Delete(0); err != nil {
		tb.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		tb.Fatal(err)
	}
	snap, err = os.ReadFile(snapshotPath(dir, 1))
	if err != nil {
		tb.Fatal(err)
	}
	walRaw, err = os.ReadFile(walPath(dir, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return snap, walRaw
}

// FuzzWAL places arbitrary bytes where generation 1's write-ahead log
// belongs, next to a valid snapshot. Whatever the bytes — torn tails,
// bit-flipped frames, fabricated headers, garbage — Load must never panic
// and never reject the index: the worst acceptable outcome is recovering
// the snapshot with an empty replayed prefix. Recovery must also be
// deterministic: the first load repairs (truncates) or rejects (removes)
// the log, so a second load sees a clean tail and the identical state.
func FuzzWAL(f *testing.F) {
	snap, walRaw := validWALSeed(f)
	f.Add(walRaw)
	f.Add(walRaw[:len(walRaw)-3]) // torn tail: final frame cut mid-payload
	f.Add(walRaw[:len(walRaw)/2]) // torn earlier
	flip := append([]byte(nil), walRaw...)
	flip[len(flip)-2] ^= 0x40 // bit rot inside the last frame's payload
	f.Add(flip)
	f.Add([]byte("FSFRAME1"))          // magic, no header
	f.Add([]byte("FSWAL001 garbage?")) // a log of the previous format
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(snapshotPath(dir, 1), snap, 0o600); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(walPath(dir, 1), data, 0o600); err != nil {
			t.Skip()
		}
		ix, err := Load(dir, fuzzOpt)
		if err != nil {
			t.Fatalf("load must recover the snapshot whatever the WAL bytes: %v", err)
		}
		ix.Probe([]string{"a", "b", "c"})

		ix2, err := Load(dir, fuzzOpt)
		if err != nil {
			t.Fatalf("second load after repair: %v", err)
		}
		if !stateEqual(liveSets(ix), liveSets(ix2)) {
			t.Fatal("recovery is not deterministic: second load differs after repair")
		}
		if st := ix2.Stats(); st.WALTruncatedFrames != 0 {
			t.Fatalf("second load still truncates (%d): first load did not repair the tail", st.WALTruncatedFrames)
		}
	})
}
