package spill

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"
	"unsafe"
)

// chunkAddrs returns where each chunk of r's heads and int64 column
// starts.
func chunkAddrs(r *Records) map[uintptr]bool {
	addrs := map[uintptr]bool{}
	for _, c := range r.heads.chunks {
		addrs[uintptr(unsafe.Pointer(&c[0]))] = true
	}
	if col, ok := r.vals.(*column[int64]); ok {
		for _, c := range col.vals.chunks {
			addrs[uintptr(unsafe.Pointer(&c[0]))] = true
		}
	}
	return addrs
}

// TestReleasedChunksReusedInvisibly: a reduce task releases what it
// fetched — partitions handed over in place, spilled ones decoded onto its
// records, a folding fetch's scratch — once it has grouped them, and
// fresh buffers filled with other records grow into those chunks. The
// groups, and the values read out of them before the release, must stay
// what the emissions say: unfolded, folded unboxed and folded boxed,
// partitions in memory and spilled.
func TestReleasedChunksReusedInvisibly(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the pools keep what they are given
	var f sumTyped
	for _, tc := range []struct {
		name   string
		fold   func(acc, v any) any
		typed  any
		budget int64
	}{
		{"plain", nil, nil, 0},
		{"fold", f.Fold, f, 0},
		{"fold-boxed", f.Fold, nil, 0},
		{"spill-plain", nil, nil, 4 << 10},
		{"spill-fold", f.Fold, f, 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Partition 0's groups as the emissions give them: key k's
			// values in buffer then emission order, or their sum.
			want := map[string][]any{}
			fill := func(seed int64) []*Buffer {
				bufs := make([]*Buffer, 3)
				for m := range bufs {
					bufs[m] = NewBuffer(Config{Parts: 2, Budget: tc.budget, Dir: t.TempDir(),
						Size: testSize, Fold: tc.fold, TypedFold: tc.typed})
					for i := 0; i < 3000; i++ {
						k, v := (i*7+m)%500, seed+int64(i)
						key := fmt.Sprintf("k%03d", k)
						if err := bufs[m].Add(k%2, key, v); err != nil {
							t.Fatal(err)
						}
						switch {
						case k%2 == 1:
						case tc.fold != nil && want[key] != nil:
							want[key][0] = want[key][0].(int64) + v
						default:
							want[key] = append(want[key], v)
						}
					}
					bufs[m].Trim()
				}
				return bufs
			}
			bufs := fill(1000)
			var fetched Records
			var fetcher Fetcher
			var srcs []Source
			released := map[uintptr]bool{}
			for _, b := range bufs {
				src, _, err := b.Fetch(0, &fetched, &fetcher)
				if err != nil {
					t.Fatal(err)
				}
				srcs = append(srcs, src)
				for a := range chunkAddrs(&b.parts[0]) {
					released[a] = true
				}
			}
			for a := range chunkAddrs(&fetched) {
				released[a] = true
			}
			g, err := Group(srcs, tc.fold, tc.typed)
			if err != nil {
				t.Fatal(err)
			}
			groups := func() map[string][]any {
				out := map[string][]any{}
				keys := NewKeyArena(g.Len())
				for i := 0; i < g.Len(); i++ {
					if tc.fold != nil {
						out[g.Key(i, keys)] = []any{g.Acc(i)}
					} else {
						out[g.Key(i, keys)] = g.Values(i)
					}
				}
				return out
			}
			read := groups()
			if !reflect.DeepEqual(read, want) {
				t.Fatal("groups differ from the emissions before any release")
			}
			fetched.Release()
			fetcher.Release()
			for _, b := range bufs {
				b.Release(0)
			}

			want = map[string][]any{}
			reused := 0
			for _, b := range fill(-1 << 40) {
				for p := range b.parts {
					for a := range chunkAddrs(&b.parts[p]) {
						if released[a] {
							reused++
						}
					}
				}
			}
			if reused == 0 {
				t.Fatalf("none of %d released chunks was reused", len(released))
			}
			if now := groups(); !reflect.DeepEqual(now, read) {
				t.Fatalf("groups changed once %d chunks they were cut from were reused", reused)
			}
			for key, vals := range read {
				for j, v := range vals {
					if v.(int64) < 0 {
						t.Fatalf("key %s: value %d read before the release now %d", key, j, v)
					}
				}
			}
		})
	}
}

// TestSeededChunkNeverPooled: a column's first chunk is part of the
// column, so neither Trim nor release may give it to the pool, whose next
// taker would then share it with the column; and every other chunk a
// release gives back is zeroed when it is taken again.
func TestSeededChunkNeverPooled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := columnFor(int64(0)).(*column[int64])
	first := &c.first[0]
	if !c.vals.seeded || &c.vals.chunks[0][0] != first {
		t.Fatal("a new column's first chunk is not its own")
	}
	for i := 0; i < 100; i++ {
		c.vals.Append(int64(i + 1))
	}
	c.reset()
	c.trim()
	if len(c.vals.chunks) != 1 || &c.vals.chunks[0][0] != first {
		t.Fatalf("Trim of an empty column kept %d chunks, want its own first", len(c.vals.chunks))
	}
	for i := 0; i < 100; i++ {
		c.vals.Append(int64(-i - 1))
	}
	c.release()
	if c.vals.Len() != 0 || len(c.vals.chunks) != 1 || &c.vals.chunks[0][0] != first {
		t.Fatal("release dropped the column's first chunk or kept records")
	}
	pool := poolOf[int64]()
	for class := range pool {
		for range 64 {
			chunk := pool.get(class)
			if &chunk[0] == first {
				t.Fatalf("the pool handed out a column's first chunk")
			}
			for _, v := range chunk {
				if v != 0 {
					t.Fatalf("a pooled chunk of %d came back holding %d", len(chunk), v)
				}
			}
		}
	}
}
