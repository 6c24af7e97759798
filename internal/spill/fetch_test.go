package spill

import (
	"fmt"
	"math/rand"
	"testing"
)

// fetchSizer sizes values for fetchSize.
var fetchSizer Sizer

// fetchSize accounts a record as the engine does: key, value and a fixed
// overhead, so a fold that changes a value's type changes its size.
func fetchSize(key string, v any) int64 { return int64(len(key)+fetchSizer.Size(v)) + 8 }

// TestSpilledFetchMatchesMemory: a reduce task that fetches spilled
// partitions — from one run or many, folding or not, one map task or
// several into one shared Records — groups exactly what it groups from the
// same emissions held in memory: the same groups, keys, sizes, values in
// order, accumulators and accumulator column, and the same fetched record
// count and bytes.
func TestSpilledFetchMatchesMemory(t *testing.T) {
	kinds := map[string]func(rng *rand.Rand, i int) any{
		"int64":  func(_ *rand.Rand, i int) any { return int64(i) },
		"uint32": func(_ *rand.Rand, i int) any { return uint32(i) },
		"boxed":  func(_ *rand.Rand, i int) any { return fmt.Sprint(i) },
		"nil":    func(*rand.Rand, int) any { return nil },
		"mixed": func(rng *rand.Rand, i int) any {
			switch rng.Intn(4) {
			case 0:
				return uint32(i)
			case 1:
				return fmt.Sprint(i)
			case 2:
				return nil
			}
			return int64(i)
		},
	}
	folds := map[string]*folder{
		"plain": nil,
		"typed": {boxed: sumAny{}.Fold, typed: sumAny{}},
		"boxed": {boxed: sumAny{}.Fold},
	}
	runs := map[bool]int{} // many runs -> cases seen
	for seed := int64(0); seed < 40; seed++ {
		for kname, kind := range kinds {
			for fname, f := range folds {
				rng := rand.New(rand.NewSource(seed))
				// A key pool of 0- to 20-byte keys over a small alphabet, so
				// keys share prefixes and repeat.
				pool := make([]string, 1+rng.Intn(60))
				for i := range pool {
					b := make([]byte, rng.Intn(21))
					for j := range b {
						b[j] = "abc\x00"[rng.Intn(4)]
					}
					pool[i] = string(b)
				}
				parts, tasks := 1+rng.Intn(3), 1+rng.Intn(3)
				budget := int64(64 + rng.Intn(512))
				if seed%2 == 0 {
					budget = 4096 // one run for most streams
				}
				cfg := Config{Parts: parts, Size: fetchSize, Dir: t.TempDir()}
				if f != nil {
					cfg.Fold, cfg.TypedFold = f.boxed, f.typed
				}
				var ref, spilled []*Buffer
				for mt := 0; mt < tasks; mt++ {
					r := NewBuffer(cfg)
					cfg.Budget = budget
					s := NewBuffer(cfg)
					cfg.Budget = 0
					defer r.Close()
					defer s.Close()
					for i, n := 0, rng.Intn(600); i < n; i++ {
						k, v, p := pool[rng.Intn(len(pool))], kind(rng, i), rng.Intn(parts)
						if err := r.Add(p, k, v); err != nil {
							t.Fatal(err)
						}
						if err := s.Add(p, k, v); err != nil {
							t.Fatal(err)
						}
					}
					if st := s.Stats(); st.Runs > 0 {
						runs[st.Runs > 1]++
					}
					ref, spilled = append(ref, r), append(spilled, s)
				}
				for p := 0; p < parts; p++ {
					want, wn, wb := fetchGroups(t, ref, p, f)
					got, gn, gb := fetchGroups(t, spilled, p, f)
					if msg := diffGroups(got, want, f != nil); msg != "" {
						t.Fatalf("seed %d, %s values, %s fold, partition %d: %s", seed, kname, fname, p, msg)
					}
					if gn != wn || gb != wb {
						t.Fatalf("seed %d, %s values, %s fold, partition %d: fetched %d records of %d bytes, want %d of %d",
							seed, kname, fname, p, gn, gb, wn, wb)
					}
				}
			}
		}
	}
	if runs[false] == 0 || runs[true] == 0 {
		t.Fatalf("map tasks that spilled one run: %d, several: %d; want both", runs[false], runs[true])
	}
}

// TestSpilledDecodeAllocatesNothing: a fetch decodes a spilled partition
// of int64 values under four-byte keys straight into a column of int64,
// each record accounted at the size its frame carries: once the records
// and the fetcher it decodes with have grown to the partition, fetching it
// again allocates nothing — no box, no key string, not one allocation a
// record.
func TestSpilledDecodeAllocatesNothing(t *testing.T) {
	const n = 20_000
	b := NewBuffer(Config{Parts: 1, Budget: 16 << 10, Size: fetchSize, Dir: t.TempDir()})
	defer b.Close()
	want := int64(0)
	for i := 0; i < n; i++ {
		key := string([]byte{0, 0, byte(i >> 8), byte(i)})
		if err := b.Add(0, key, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
		want += fetchSize(key, int64(1000+i))
	}
	if runs := b.Stats().Runs; runs < 2 {
		t.Fatalf("%d spills, want several", runs)
	}
	var dst Records
	var f Fetcher
	fetch := func() {
		dst.reset()
		if _, _, err := b.Fetch(0, &dst, &f); err != nil {
			t.Fatal(err)
		}
	}
	fetch()
	if dst.Len() != n || dst.Bytes() != want || dst.Column() != "*spill.column[int64]" {
		t.Fatalf("fetched %d records of %d bytes into a %s, want %d of %d into a *spill.column[int64]",
			dst.Len(), dst.Bytes(), dst.Column(), n, want)
	}
	a := testing.AllocsPerRun(10, fetch)
	t.Logf("fetch: %v allocations for %d spilled int64 records", a, n)
	if a != 0 {
		t.Fatalf("fetching %d spilled int64 records allocated %v times", n, a)
	}
}

// fetchGroups fetches partition p of every buffer into one Records, as a
// reduce task does, and groups what it fetched; it returns the groups and
// the records and bytes fetched.
func fetchGroups(t *testing.T, bufs []*Buffer, p int, f *folder) (*Groups, int, int64) {
	t.Helper()
	var fetched Records
	var fetcher Fetcher
	var srcs []Source
	n, bytes := 0, int64(0)
	for _, b := range bufs {
		src, _, err := b.Fetch(p, &fetched, &fetcher)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
		for i := src.Lo; i < src.Hi; i++ {
			n, bytes = n+1, bytes+src.Recs.heads.At(i).bytes()
		}
	}
	var fold func(acc, v any) any
	var typed any
	if f != nil {
		fold, typed = f.boxed, f.typed
	}
	g, err := Group(srcs, fold, typed)
	if err != nil {
		t.Fatal(err)
	}
	return g, n, bytes
}

// BenchmarkSpilledFetch fetches and groups every partition of a map task's
// buffer that spilled: 200 000 int64 records under 4-byte keys over 30
// partitions, in runs of about 256 KiB, as a reduce task of each partition
// would.
func BenchmarkSpilledFetch(b *testing.B) {
	const n, parts = 200_000, 30
	for _, fold := range []bool{false, true} {
		cfg := Config{Parts: parts, Budget: 256 << 10, Size: fetchSize, Dir: b.TempDir()}
		name := "plain"
		if fold {
			cfg.Fold, cfg.TypedFold, name = sumTyped{}.Fold, sumTyped{}, "fold"
		}
		buf := NewBuffer(cfg)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			k := rng.Uint32() % 50_000
			key := string([]byte{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)})
			if err := buf.Add(int(k%parts), key, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		if buf.Stats().Runs < 2 {
			b.Fatalf("%d runs, want several", buf.Stats().Runs)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for p := 0; p < parts; p++ {
					var fetched Records
					src, _, err := buf.Fetch(p, &fetched, new(Fetcher))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Group([]Source{src}, cfg.Fold, cfg.TypedFold); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
		buf.Close()
	}
}
