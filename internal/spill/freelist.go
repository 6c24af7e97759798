package spill

import (
	"sync"
	"sync/atomic"
)

// freeList holds memory the shuffle gave back — chunks of one element type
// and size, or slices of one type — until a later task takes it. It is a
// plain stack, not a sync.Pool, because the garbage collector must not
// decide what a job gets back. A sync.Pool keeps what it is given across
// one collection only, so whether one join call's chunks were still there
// for the next depended on whether a collection fell between the two: a
// call that allocated near the collector's goal found everything (no
// collection, so all it gave back survived) or almost nothing (one, which
// dropped what it gave back before it), and stayed in that state from call
// to call. On self_wiki_inmem one seed in ten ran every call at 67 MB
// allocated, and up to 30 % faster than the other seeds at 110 MB. What a
// free list hands out depends only on what the engine gave back before.
//
// Everything the free lists hold counts against maxPooledBytes, process
// wide; what would exceed it is left to the collector. DropPooled empties
// them all.
type freeList[E any] struct {
	once  sync.Once
	mu    sync.Mutex
	items []pooled[E]
}

// pooled is one item a free list holds, with the bytes it counts.
type pooled[E any] struct {
	e     E
	bytes int64
}

// maxPooledBytes bounds what the free lists hold together: about what a
// PubMed-scale self-join gives back at its peak (93 MB), so that such a
// join reuses all of it, while a process that ran a larger join keeps no
// more than this of it once it is done.
const maxPooledBytes = 128 << 20

var (
	pooledBytes atomic.Int64 // held by every free list together

	listsMu sync.Mutex
	lists   []interface{ empty() } // every free list that was ever given an item
)

// take returns the item given back last, or false when the list is empty.
func (f *freeList[E]) take() (E, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		var zero E
		return zero, false
	}
	it := f.items[n-1]
	f.items[n-1] = pooled[E]{}
	f.items = f.items[:n-1]
	pooledBytes.Add(-it.bytes)
	return it.e, true
}

// give keeps e, which counts bytes, for a later take; past maxPooledBytes
// it drops e instead.
func (f *freeList[E]) give(e E, bytes int64) {
	if pooledBytes.Add(bytes) > maxPooledBytes {
		pooledBytes.Add(-bytes)
		return
	}
	f.once.Do(func() {
		listsMu.Lock()
		lists = append(lists, f)
		listsMu.Unlock()
	})
	f.mu.Lock()
	f.items = append(f.items, pooled[E]{e, bytes})
	f.mu.Unlock()
}

// empty drops everything the list holds.
func (f *freeList[E]) empty() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, it := range f.items {
		pooledBytes.Add(-it.bytes)
	}
	f.items = nil
}

// DropPooled leaves everything the shuffle's free lists hold to the garbage
// collector: the next job allocates its chunks, tables and arrays afresh.
// It is safe beside running jobs, which then allocate what they would
// have taken.
func DropPooled() {
	listsMu.Lock()
	defer listsMu.Unlock()
	for _, l := range lists {
		l.empty()
	}
}

// PooledBytes is what the free lists hold together, in the bytes they count.
func PooledBytes() int64 { return pooledBytes.Load() }
