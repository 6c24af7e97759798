package spill

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeListSurvivesCollection: what a free list is given stays there
// across collections until it is taken, last in first out, so a loop of
// jobs takes back the same memory wherever the collector runs; a chunk
// pool's chunk and a slice pool's slice each count their bytes while held.
func TestFreeListSurvivesCollection(t *testing.T) {
	DropPooled()
	var f freeList[*[]int64]
	a, b := new([]int64), new([]int64)
	f.give(a, 8)
	f.give(b, 8)
	runtime.GC()
	runtime.GC()
	if got, ok := f.take(); !ok || got != b {
		t.Fatal("the last item given back was not taken first after two collections")
	}
	if got, ok := f.take(); !ok || got != a {
		t.Fatal("the first item given back was not kept across two collections")
	}
	if _, ok := f.take(); ok {
		t.Fatal("an empty free list handed out an item")
	}

	var chunks chunkPool[int64]
	c := chunks.get(2)
	chunks.put(c)
	if n := pooledBytes.Load(); n != int64(len(c))*8 {
		t.Fatalf("a pooled chunk of %d int64 counts %d bytes", len(c), n)
	}
	runtime.GC()
	runtime.GC()
	if d := chunks.get(2); &d[0] != &c[0] {
		t.Fatal("the chunk given back was not reused after two collections")
	}
	var slices slicePool[int32]
	s := slices.get(100)
	slices.put(s)
	if n := pooledBytes.Load(); n != int64(cap(*s))*4 {
		t.Fatalf("a pooled slice of cap %d int32 counts %d bytes", cap(*s), n)
	}
	if slices.get(50) != s || pooledBytes.Load() != 0 {
		t.Fatal("the slice given back was not reused, or still counts")
	}
}

// TestFreeListCapAndDrop: an item that would take the free lists past
// maxPooledBytes together is dropped, not kept, and DropPooled empties
// every list.
func TestFreeListCapAndDrop(t *testing.T) {
	DropPooled()
	var f, g freeList[*int]
	f.give(new(int), maxPooledBytes-1)
	g.give(new(int), 2)
	if _, ok := g.take(); ok {
		t.Fatal("an item past the cap was kept")
	}
	g.give(new(int), 1)
	if n := pooledBytes.Load(); n != maxPooledBytes {
		t.Fatalf("the free lists count %d bytes, want %d", n, maxPooledBytes)
	}
	DropPooled()
	if _, ok := f.take(); ok {
		t.Fatal("DropPooled left an item in one list")
	}
	if _, ok := g.take(); ok {
		t.Fatal("DropPooled left an item in another list")
	}
	if n := pooledBytes.Load(); n != 0 {
		t.Fatalf("the free lists count %d bytes once emptied", n)
	}
}

// TestFreeListConcurrent: goroutines giving and taking on shared free lists
// while another empties them all leave the lists' byte count equal to what
// they hold. Run it with -race.
func TestFreeListConcurrent(t *testing.T) {
	DropPooled()
	var lists [2]freeList[*int64]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &lists[w%2]
			for i := 0; i < 2000; i++ {
				l.give(new(int64), 8)
				if i%3 == 0 {
					l.take()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			DropPooled()
		}
	}()
	wg.Wait()
	held := int64(0)
	for i := range lists {
		for {
			if _, ok := lists[i].take(); !ok {
				break
			}
			held += 8
		}
	}
	if n := pooledBytes.Load(); n != 0 {
		t.Fatalf("the free lists count %d bytes with nothing held (%d taken out)", n, held)
	}
}
