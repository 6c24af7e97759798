package probeindex

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"fsjoin/internal/bruteforce"
	"fsjoin/internal/filters"
	"fsjoin/internal/similarity"
	"fsjoin/internal/testutil"
	"fsjoin/internal/tokens"
)

// tokenName is the injective id→string mapping tests build indexes with.
func tokenName(t tokens.ID) string { return fmt.Sprintf("t%06d", t) }

// names maps a record's token ids to strings.
func names(ts []tokens.ID) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = tokenName(t)
	}
	return out
}

// oracleProbe answers a probe by brute force over live string sets.
func oracleProbe(live map[int32][]string, q []string, fn similarity.Func, theta float64, exclude int32, hasExcl bool) []Match {
	qset := map[string]bool{}
	for _, s := range q {
		qset[s] = true
	}
	var out []Match
	for rid, toks := range live {
		if hasExcl && rid == exclude {
			continue
		}
		tset := map[string]bool{}
		c := 0
		for _, s := range toks {
			if !tset[s] {
				tset[s] = true
				if qset[s] {
					c++
				}
			}
		}
		if len(qset) == 0 || len(tset) == 0 {
			continue
		}
		if fn.AtLeast(c, len(qset), len(tset), theta) {
			out = append(out, Match{RID: rid, Common: int32(c), Sim: fn.Sim(c, len(qset), len(tset))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RID < out[j].RID })
	return out
}

func assertMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d matches, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d differs: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

func TestProbeRecordMatchesSelfJoinOracle(t *testing.T) {
	c := testutil.RandomCollection(120, 60, 24, 21)
	for _, fn := range []similarity.Func{similarity.Jaccard, similarity.Dice, similarity.Cosine} {
		for _, theta := range []float64{0.6, 0.8, 0.95} {
			for _, mode := range []filters.BitmapMode{filters.BitmapOn, filters.BitmapOff} {
				ix, err := Build(c, tokenName, Options{Fn: fn, Theta: theta, Bitmap: filters.BitmapConfig{Mode: mode}})
				if err != nil {
					t.Fatal(err)
				}
				oracle := bruteforce.SelfJoin(c, fn, theta)
				want := map[int32][]Match{}
				for _, p := range oracle {
					want[p.A] = append(want[p.A], Match{RID: p.B, Common: int32(p.Common), Sim: p.Sim})
					want[p.B] = append(want[p.B], Match{RID: p.A, Common: int32(p.Common), Sim: p.Sim})
				}
				for _, r := range c.Records {
					got, err := ix.ProbeRecord(r.RID)
					if err != nil {
						t.Fatal(err)
					}
					w := want[r.RID]
					sort.Slice(w, func(i, j int) bool { return w[i].RID < w[j].RID })
					assertMatches(t, fmt.Sprintf("fn=%v theta=%v bitmap=%v rid=%d", fn, theta, mode, r.RID), got, w)
				}
			}
		}
	}
}

func TestProbeUnknownTokens(t *testing.T) {
	c := testutil.RandomCollection(100, 50, 20, 22)
	live := map[int32][]string{}
	for _, r := range c.Records {
		live[r.RID] = names(r.Tokens)
	}
	ix, err := Build(c, tokenName, Options{Fn: similarity.Jaccard, Theta: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for qi := 0; qi < 60; qi++ {
		base := c.Records[rng.Intn(len(c.Records))]
		q := names(base.Tokens)
		for k := rng.Intn(3); k > 0; k-- {
			q = append(q, fmt.Sprintf("unknown-%d", rng.Intn(5)))
		}
		// Duplicates in the probe must be harmless.
		if len(q) > 0 {
			q = append(q, q[0])
		}
		got := ix.Probe(q)
		want := oracleProbe(live, q, similarity.Jaccard, 0.6, 0, false)
		assertMatches(t, fmt.Sprintf("query %d", qi), got, want)
	}
}

func TestInsertDeleteCompactMatchesOracle(t *testing.T) {
	c := testutil.RandomCollection(80, 40, 16, 23)
	for _, mode := range []filters.BitmapMode{filters.BitmapOn, filters.BitmapOff} {
		live := map[int32][]string{}
		for _, r := range c.Records {
			live[r.RID] = names(r.Tokens)
		}
		ix, err := Build(c, tokenName, Options{Fn: similarity.Jaccard, Theta: 0.7, Bitmap: filters.BitmapConfig{Mode: mode}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(31 + mode)))
		check := func(step string) {
			t.Helper()
			for _, r := range c.Records[:20] {
				q := names(r.Tokens)
				assertMatches(t, step, ix.Probe(q), oracleProbe(live, q, similarity.Jaccard, 0.7, 0, false))
			}
			if got, want := ix.Len(), len(live); got != want {
				t.Fatalf("%s: Len=%d want %d", step, got, want)
			}
		}
		for round := 0; round < 4; round++ {
			// Insert a few records, some reusing corpus tokens, some new.
			for k := 0; k < 6; k++ {
				var set []string
				if rng.Intn(2) == 0 {
					set = names(c.Records[rng.Intn(len(c.Records))].Tokens)
				} else {
					for j := rng.Intn(8) + 1; j > 0; j-- {
						set = append(set, fmt.Sprintf("new-%d-%d", round, rng.Intn(20)))
					}
				}
				rid, err := ix.Insert(set)
				if err != nil {
					t.Fatal(err)
				}
				if _, clash := live[rid]; clash {
					t.Fatalf("Insert reused rid %d", rid)
				}
				dedup := map[string]bool{}
				var ds []string
				for _, s := range set {
					if !dedup[s] {
						dedup[s] = true
						ds = append(ds, s)
					}
				}
				live[rid] = ds
			}
			// Delete a few live records (base and overlay alike).
			rids := make([]int32, 0, len(live))
			for rid := range live {
				rids = append(rids, rid)
			}
			sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
			for k := 0; k < 4; k++ {
				rid := rids[rng.Intn(len(rids))]
				if _, ok := live[rid]; !ok {
					continue
				}
				if err := ix.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(live, rid)
			}
			check(fmt.Sprintf("bitmap=%v round %d pre-compact", mode, round))
			if round%2 == 1 {
				before := ix.Stats()
				if err := ix.Compact(); err != nil {
					t.Fatal(err)
				}
				after := ix.Stats()
				if after.LogSize != 0 {
					t.Fatalf("LogSize %d after Compact", after.LogSize)
				}
				if after.Compactions != before.Compactions+1 {
					t.Fatalf("Compactions %d -> %d", before.Compactions, after.Compactions)
				}
				check(fmt.Sprintf("bitmap=%v round %d post-compact", mode, round))
			}
		}
		if err := ix.Delete(99999); err == nil {
			t.Fatal("Delete of unknown rid succeeded")
		}
		if _, err := ix.ProbeRecord(99999); err == nil {
			t.Fatal("ProbeRecord of unknown rid succeeded")
		}
	}
}

// TestCompactMatchesBuild: after rounds of inserts (old and new tokens) and
// deletes (base and overlay), Compact lays the index out exactly as a fresh
// Build over the live records under the same RIDs: the same token table,
// CSR base, postings and signatures, and an empty overlay.
func TestCompactMatchesBuild(t *testing.T) {
	c := testutil.RandomCollection(80, 40, 16, 27)
	for _, mode := range []filters.BitmapMode{filters.BitmapOn, filters.BitmapOff} {
		opt := Options{Fn: similarity.Jaccard, Theta: 0.7, Bitmap: filters.BitmapConfig{Mode: mode}}
		ix, err := Build(c, tokenName, opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(41 + mode)))
		for round := 0; round < 3; round++ {
			for k := 0; k < 8; k++ {
				set := names(c.Records[rng.Intn(len(c.Records))].Tokens)
				for j := rng.Intn(4); j > 0; j-- {
					set = append(set, fmt.Sprintf("new-%d", rng.Intn(10)))
				}
				if _, err := ix.Insert(set); err != nil {
					t.Fatal(err)
				}
			}
			var rids []int32
			for rid := range liveSets(ix) {
				rids = append(rids, rid)
			}
			sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
			for _, k := range rng.Perm(len(rids))[:5] {
				if err := ix.Delete(rids[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}

		// The fresh build: live records under their RIDs, token ids assigned
		// in map order (the order must not depend on them).
		live := liveSets(ix)
		var strs []string
		id := map[string]tokens.ID{}
		fresh := &tokens.Collection{}
		for rid, toks := range live {
			ids := make([]tokens.ID, len(toks))
			for i, s := range toks {
				if _, ok := id[s]; !ok {
					id[s] = tokens.ID(len(strs))
					strs = append(strs, s)
				}
				ids[i] = id[s]
			}
			fresh.Records = append(fresh.Records, tokens.NewRecord(rid, ids))
		}
		sort.Slice(fresh.Records, func(i, j int) bool { return fresh.Records[i].RID < fresh.Records[j].RID })
		want, err := Build(fresh, func(t tokens.ID) string { return strs[t] }, opt)
		if err != nil {
			t.Fatal(err)
		}

		if len(ix.log) != 0 || ix.logLive != 0 || ix.baseDead != 0 {
			t.Fatalf("bitmap=%v: overlay not empty after Compact", mode)
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"tokStr", ix.tokStr, want.tokStr},
			{"tokRank", ix.tokRank, want.tokRank},
			{"recOff", ix.recOff, want.recOff},
			{"recTok", ix.recTok, want.recTok},
			{"recRID", ix.recRID, want.recRID},
			{"dead", ix.dead, want.dead},
			{"slotOf", ix.slotOf, want.slotOf},
			{"sigWords", ix.sigWords, want.sigWords},
			{"recSig", ix.recSig, want.recSig},
			{"postOff", ix.postOff, want.postOff},
			{"postSlot", ix.postSlot, want.postSlot},
			{"postPos", ix.postPos, want.postPos},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("bitmap=%v: %s differs from a fresh Build\n got: %v\nwant: %v", mode, f.name, f.got, f.want)
			}
		}
		if mode == filters.BitmapOn && ix.sigWords == 0 {
			t.Errorf("bitmap=on built no signatures")
		}
	}
}

func TestStatsCounters(t *testing.T) {
	c := testutil.RandomCollection(60, 30, 12, 24)
	ix, err := Build(c, tokenName, Options{Fn: similarity.Jaccard, Theta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Records[:10] {
		ix.Probe(names(r.Tokens))
	}
	st := ix.Stats()
	if st.Probes != 10 {
		t.Fatalf("Probes=%d want 10", st.Probes)
	}
	if st.Hits == 0 || st.Candidates < st.Hits {
		t.Fatalf("implausible counters: %+v", st)
	}
	if st.Records != int64(len(c.Records)) {
		t.Fatalf("Records=%d want %d", st.Records, len(c.Records))
	}
	if _, err := ix.Insert([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(c.Records[0].RID); err != nil {
		t.Fatal(err)
	}
	if st = ix.Stats(); st.LogSize != 2 {
		t.Fatalf("LogSize=%d want 2 (1 insert + 1 tombstone)", st.LogSize)
	}
}

func TestBuildValidation(t *testing.T) {
	c := testutil.RandomCollection(5, 10, 5, 1)
	if _, err := Build(c, tokenName, Options{Fn: similarity.Jaccard, Theta: 0}); err == nil {
		t.Error("theta 0 accepted")
	}
	if _, err := Build(c, tokenName, Options{Fn: similarity.Func(9), Theta: 0.5}); err == nil {
		t.Error("bogus function accepted")
	}
	if _, err := Build(nil, tokenName, Options{Fn: similarity.Jaccard, Theta: 0.5}); err == nil {
		t.Error("nil collection accepted")
	}
	if _, err := Build(c, func(tokens.ID) string { return "same" },
		Options{Fn: similarity.Jaccard, Theta: 0.5}); err == nil {
		t.Error("non-injective tokenOf accepted")
	}
	if _, err := Build(c, tokenName,
		Options{Fn: similarity.Jaccard, Theta: 0.5, Bitmap: filters.BitmapConfig{Width: 65}}); err == nil {
		t.Error("bad bitmap width accepted")
	}
}

func TestEmptyIndexAndEmptyProbe(t *testing.T) {
	ix, err := Build(&tokens.Collection{}, tokenName, Options{Fn: similarity.Jaccard, Theta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Probe([]string{"a", "b"}); got != nil {
		t.Fatalf("probe of empty index returned %v", got)
	}
	rid, err := ix.Insert([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Probe([]string{"a", "b"}); len(got) != 1 || got[0].RID != rid {
		t.Fatalf("probe after insert: %v", got)
	}
	if got := ix.Probe(nil); got != nil {
		t.Fatalf("empty probe returned %v", got)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Probe([]string{"b", "a", "a"}); len(got) != 1 || got[0].RID != rid {
		t.Fatalf("probe after compact: %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := testutil.RandomCollection(90, 45, 18, 25)
	opt := Options{Fn: similarity.Dice, Theta: 0.75, Bitmap: filters.BitmapConfig{Mode: filters.BitmapOn}}
	ix, err := Build(c, tokenName, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert([]string{"alpha", "beta", "gamma"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(names(c.Records[3].Tokens)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(c.Records[5].RID); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Records[:5] {
		ix.Probe(names(r.Tokens))
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Identical probe answers, stats history and live count.
	for _, r := range c.Records {
		q := names(r.Tokens)
		assertMatches(t, fmt.Sprintf("rid %d", r.RID), ld.Probe(q), ix.Probe(q))
	}
	assertMatches(t, "unknown-token probe",
		ld.Probe([]string{"alpha", "beta", "gamma"}), ix.Probe([]string{"alpha", "beta", "gamma"}))
	if a, b := ix.Len(), ld.Len(); a != b {
		t.Fatalf("Len %d vs %d", a, b)
	}
	ist, lst := ix.Stats(), ld.Stats()
	if lst.LogSize != ist.LogSize || lst.Records != ist.Records {
		t.Fatalf("stats drift: saved %+v loaded %+v", ist, lst)
	}
	// RID allocation continues past everything persisted.
	rid, err := ld.Insert([]string{"delta"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := ix.Insert([]string{"delta"})
	if err != nil {
		t.Fatal(err)
	}
	if rid != other {
		t.Fatalf("loaded index allocated rid %d, original %d", rid, other)
	}
}

func TestLoadStaleAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	c := testutil.RandomCollection(40, 30, 12, 26)
	opt := Options{Fn: similarity.Jaccard, Theta: 0.8, Bitmap: filters.BitmapConfig{Mode: filters.BitmapOff}}
	ix, err := Build(c, tokenName, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Different serving configuration: stale, never served — and the
	// rejection names its reason.
	stale := opt
	stale.Theta = 0.6
	if _, err := Load(dir, stale); err == nil {
		t.Fatal("stale load succeeded")
	} else if !errors.Is(err, ErrNoIndex) || !errors.Is(err, ErrStaleConfig) {
		t.Fatalf("stale load error %v does not wrap ErrNoIndex+ErrStaleConfig", err)
	}
	// The stale load removed the file; a matching load now misses too.
	if _, err := Load(dir, opt); err == nil {
		t.Fatal("load after stale discard succeeded")
	}

	// Corrupt trailer: flip one byte in the body.
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files: %v %v", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(files[0], raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, opt); err == nil {
		t.Fatal("corrupt load succeeded")
	} else if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("corrupt load error %v does not wrap ErrCorruptSnapshot", err)
	}
	if rej := LoadRejects(); rej["index.load.rejects.stale"] == 0 || rej["index.load.rejects.corrupt"] == 0 {
		t.Fatalf("load-reject counters missing: %v", rej)
	}
	// Rebuild-never-trust: after the failed load a fresh Save works again.
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, opt); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentProbesAndMutations(t *testing.T) {
	c := testutil.RandomCollection(100, 50, 16, 27)
	ix, err := Build(c, tokenName, Options{Fn: similarity.Jaccard, Theta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				r := c.Records[rng.Intn(len(c.Records))]
				ix.Probe(names(r.Tokens))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			rid, err := ix.Insert([]string{fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i+1)})
			if err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := ix.Delete(rid); err != nil {
					t.Error(err)
				}
			}
			if i%20 == 19 {
				if err := ix.Compact(); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
}
