package fsjoin

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fsjoin/internal/bruteforce"
)

// formatMatches renders probe hits for one query in the golden fixture's
// line format; scores print with full round-trip precision, so comparisons
// are bit-equality of the float.
func formatMatches(q int, ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%d %d %d %s", q, m.RID, m.Common, formatSim(m.Similarity))
	}
	return out
}

// pairsInvolving restricts a self-join result to the rows mentioning rid,
// reshaped as the probe answer for that record.
func pairsInvolving(pairs []Pair, rid int) []Match {
	var out []Match
	for _, p := range pairs {
		switch rid {
		case p.A:
			out = append(out, Match{RID: p.B, Common: p.Common, Similarity: p.Similarity})
		case p.B:
			out = append(out, Match{RID: p.A, Common: p.Common, Similarity: p.Similarity})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RID < out[j].RID })
	return out
}

// assertSameMatches compares probe output to a reference bit-for-bit.
func assertSameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestIndexProbeMatchesSelfJoin is the tentpole differential: for every
// record, ProbeRecord must reproduce the full batch self-join restricted to
// that record — same partners, same counts, bit-identical scores — across
// all three similarity functions, several thresholds, and both bitmap
// modes.
func TestIndexProbeMatchesSelfJoin(t *testing.T) {
	texts := corpus(70, 5)
	d := NewDictionary()
	coll := d.NewTextCollection(texts)
	for _, fn := range []Similarity{Jaccard, Dice, Cosine} {
		for _, theta := range []float64{0.6, 0.8, 0.95} {
			for _, bm := range []string{"on", "off"} {
				t.Setenv("FSJOIN_BITMAP", bm)
				label := fmt.Sprintf("fn=%d theta=%v bitmap=%v", fn, theta, bm)
				ix, err := BuildIndex(coll, IndexOptions{Threshold: theta, Function: fn})
				if err != nil {
					t.Fatal(err)
				}
				full, err := coll.SelfJoin(Options{
					Threshold: theta, Function: fn, LocalParallelism: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				for rid := range texts {
					got, err := ix.ProbeRecord(rid)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, fmt.Sprintf("%s rid=%d", label, rid),
						got, pairsInvolving(full.Pairs, rid))
				}
			}
		}
	}
}

// TestIndexProbeMatchesRSJoin: probing external queries must reproduce the
// R-S join of the query relation against the corpus, row by row.
func TestIndexProbeMatchesRSJoin(t *testing.T) {
	texts := corpus(60, 6)
	queries := corpus(25, 7)
	d := NewDictionary()
	coll := d.NewTextCollection(texts)
	qc := d.NewTextCollection(queries)
	for _, fn := range []Similarity{Jaccard, Dice, Cosine} {
		for _, theta := range []float64{0.6, 0.85} {
			ix, err := BuildIndex(coll, IndexOptions{Threshold: theta, Function: fn})
			if err != nil {
				t.Fatal(err)
			}
			full, err := qc.Join(coll, Options{Threshold: theta, Function: fn, LocalParallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := map[int][]Match{}
			for _, p := range full.Pairs {
				want[p.A] = append(want[p.A], Match{RID: p.B, Common: p.Common, Similarity: p.Similarity})
			}
			sets := make([][]string, len(queries))
			for i, q := range queries {
				sets[i] = strings.Fields(q)
			}
			for qi, got := range ix.ProbeBatch(sets) {
				assertSameMatches(t, fmt.Sprintf("fn=%d theta=%v q=%d", fn, theta, qi),
					got, want[qi])
			}
		}
	}
}

// TestIndexMutationsMatchOracle drives insert/delete/compact sequences and
// re-checks every probe against the brute-force oracle over the evolving
// corpus.
func TestIndexMutationsMatchOracle(t *testing.T) {
	const theta = 0.7
	texts := corpus(50, 8)
	d := NewDictionary()
	coll := d.NewTextCollection(texts)
	ix, err := BuildIndex(coll, IndexOptions{Threshold: theta})
	if err != nil {
		t.Fatal(err)
	}
	liveTexts := map[int]string{}
	for i, tx := range texts {
		liveTexts[i] = tx
	}
	check := func(step string) {
		t.Helper()
		// Oracle: rebuild a collection of the live texts and self-join it.
		rids := make([]int, 0, len(liveTexts))
		for rid := range liveTexts {
			rids = append(rids, rid)
		}
		sort.Ints(rids)
		cur := make([]string, len(rids))
		for i, rid := range rids {
			cur[i] = liveTexts[rid]
		}
		od := NewDictionary()
		oc := od.NewTextCollection(cur)
		fn, _ := Jaccard.internal()
		oracle := bruteforce.SelfJoin(oc.t, fn, theta)
		want := map[int][]Match{}
		for _, p := range oracle {
			a, b := rids[p.A], rids[p.B]
			want[a] = append(want[a], Match{RID: b, Common: p.Common, Similarity: p.Sim})
			want[b] = append(want[b], Match{RID: a, Common: p.Common, Similarity: p.Sim})
		}
		for _, rid := range rids {
			got, err := ix.ProbeRecord(rid)
			if err != nil {
				t.Fatalf("%s: rid %d: %v", step, rid, err)
			}
			w := want[rid]
			sort.Slice(w, func(i, j int) bool { return w[i].RID < w[j].RID })
			assertSameMatches(t, fmt.Sprintf("%s rid=%d", step, rid), got, w)
		}
	}
	check("initial")
	extra := corpus(12, 9)
	for i, tx := range extra {
		rid, err := ix.Insert(strings.Fields(tx))
		if err != nil {
			t.Fatal(err)
		}
		liveTexts[rid] = tx
		if i%3 == 0 {
			victim := i * 4 % len(texts)
			if _, ok := liveTexts[victim]; ok {
				if err := ix.Delete(victim); err != nil {
					t.Fatal(err)
				}
				delete(liveTexts, victim)
			}
		}
	}
	check("after inserts and deletes")
	if ix.Stats().LogSize == 0 {
		t.Fatal("mutations left no overlay to compact")
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().LogSize; got != 0 {
		t.Fatalf("LogSize %d after Compact", got)
	}
	check("after compact")
}

// TestIndexSaveCorruptLoad proves rebuild-never-trust end to end: a saved
// index with a damaged file must fail to load with ErrNoIndex,
// and the rebuilt-and-resaved index must serve identical answers.
func TestIndexSaveCorruptLoad(t *testing.T) {
	dir := t.TempDir()
	texts := corpus(40, 10)
	d := NewDictionary()
	coll := d.NewTextCollection(texts)
	opt := IndexOptions{Threshold: 0.7}
	ix, err := BuildIndex(coll, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(dir, opt); err != nil {
		t.Fatalf("clean load failed: %v", err)
	}
	// Damage the last byte: the end marker every closed file must carry.
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files: %v %v", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(files[0], raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(dir, opt); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("corrupt load: err=%v, want ErrNoIndex", err)
	}
	// A mismatched configuration is also ErrNoIndex, never a wrong answer.
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	other := opt
	other.Threshold = 0.9
	if _, err := LoadIndex(dir, other); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("stale load: err=%v, want ErrNoIndex", err)
	}
	// Rebuild, save, reload: bit-identical serving.
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadIndex(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for rid := range texts {
		got, err := ld.ProbeRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.ProbeRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, fmt.Sprintf("reload rid=%d", rid), got, want)
	}
}

func TestIndexOptionValidation(t *testing.T) {
	coll := NewDictionary().NewTextCollection(corpus(5, 1))
	if _, err := BuildIndex(coll, IndexOptions{Threshold: 0}); err == nil {
		t.Error("Threshold 0 accepted")
	}
	if _, err := BuildIndex(coll, IndexOptions{Threshold: 0.5, Function: Similarity(7)}); err == nil {
		t.Error("bogus Function accepted")
	}
	if _, err := BuildIndex(nil, IndexOptions{Threshold: 0.5}); err == nil {
		t.Error("nil collection accepted")
	}
	if _, err := LoadIndex(t.TempDir(), IndexOptions{Threshold: 0.5}); !errors.Is(err, ErrNoIndex) {
		t.Error("empty dir load did not report ErrNoIndex")
	}
}

// The probe golden fixture pins the exact serving output of the committed
// query relation probed against the committed corpus, at the same θ as the
// batch fixtures. Regenerate with:
//
//	go test -run TestGoldenProbe -update-golden .
const goldenProbeResults = "testdata/golden/probe_results.txt"

// writeGoldenProbe regenerates probe_results.txt from a fresh index over
// the committed corpus, cross-checking every row against the full R-S
// pipeline before anything is written.
func writeGoldenProbe(t *testing.T) {
	t.Helper()
	queries, corpusTexts, _ := loadGoldenRS(t)
	lines := goldenProbeLines(t, queries, corpusTexts)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# probe-index golden results: theta=%v, word tokens, one \"Q RID Common Sim\" per line\n", goldenTheta)
	for _, line := range lines {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(goldenProbeResults, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenProbeLines probes every query and enforces probe ≡ pipeline row
// agreement before returning the formatted lines.
func goldenProbeLines(t *testing.T, queries, corpusTexts []string) []string {
	t.Helper()
	d := NewDictionary()
	coll := d.NewTextCollection(corpusTexts)
	ix, err := BuildIndex(coll, IndexOptions{Threshold: goldenTheta})
	if err != nil {
		t.Fatal(err)
	}
	qc := d.NewTextCollection(queries)
	full, err := qc.Join(coll, Options{Threshold: goldenTheta, LocalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]Match{}
	for _, p := range full.Pairs {
		want[p.A] = append(want[p.A], Match{RID: p.B, Common: p.Common, Similarity: p.Similarity})
	}
	var lines []string
	hits := 0
	for qi, q := range queries {
		got := ix.Probe(strings.Fields(q))
		assertSameMatches(t, fmt.Sprintf("probe≡pipeline q=%d", qi), got, want[qi])
		lines = append(lines, formatMatches(qi, got)...)
		hits += len(got)
	}
	if hits < 8 {
		t.Fatalf("probes found only %d hits — fixture too sparse to pin anything", hits)
	}
	return lines
}

// TestGoldenProbe compares current probe output — direct, and through a
// save/load round-trip — against the committed fixture, line by line.
func TestGoldenProbe(t *testing.T) {
	queries, corpusTexts, _ := loadGoldenRS(t)
	if *updateGolden {
		writeGoldenProbe(t)
	}
	raw, err := os.ReadFile(goldenProbeResults)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := goldenProbeLines(t, queries, corpusTexts)
	diffPairs(t, "probe golden", got, want)

	// The same answers must survive persistence.
	dir := t.TempDir()
	d := NewDictionary()
	coll := d.NewTextCollection(corpusTexts)
	ix, err := BuildIndex(coll, IndexOptions{Threshold: goldenTheta})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadIndex(dir, IndexOptions{Threshold: goldenTheta})
	if err != nil {
		t.Fatal(err)
	}
	var reload []string
	for qi, q := range queries {
		reload = append(reload, formatMatches(qi, ld.Probe(strings.Fields(q)))...)
	}
	diffPairs(t, "probe golden after save/load", reload, want)
}
