// Package spill gives the MapReduce engine an out-of-core shuffle: a
// size-accounting partitioned KV buffer that, once a memory budget is
// exceeded, writes its spillable records in (key, emission) order as a
// length-prefixed sorted run to a temp file, then replays everything
// through a k-way heap merge in an order byte-identical (after the reduce
// phase's key-ordered grouping) to what the pure in-memory buffer produces
// — fold/combiner semantics included. The record container (List) and the
// key ordering (SortIndex) are shared with the engine's reduce side. This
// is the Hadoop sort-spill-merge
// pipeline DESIGN.md §2 originally substituted away, reintroduced so the
// reproduction no longer caps out at datasets that fit in RAM (DESIGN.md
// §8).
//
// Values cross the disk boundary through a type-tagged codec registry
// (codec.go): one Register call per value type gives it its wire tag, its
// codec and, when it is pointer-free, its unboxed column in the buffer. A
// record whose value type has no codec is pinned in memory instead of
// spilled — the budget turns soft rather than the job failing — so
// arbitrary jobs (engine tests, user code) stay correct under a
// process-wide FSJOIN_MEMORY_BUDGET.
package spill

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Config configures a Buffer.
type Config struct {
	// Parts is the number of partitions (reduce tasks).
	Parts int
	// Budget caps buffered bytes before a spill; <= 0 means unbounded (no
	// file is ever created, matching the engine's historical behaviour).
	Budget int64
	// Dir is the parent directory for the buffer's private temp dir; ""
	// means the OS temp dir. The private dir is created lazily on first
	// spill and removed by Close.
	Dir string
	// Fold, when non-nil, folds a new value into an existing accumulator
	// for the same key (the engine's fold-at-emit combiner). It must be
	// merge-capable — folding two accumulators must equal folding their
	// constituent values — because the k-way merge re-folds keys whose
	// records were split across runs.
	Fold func(acc, v any) any
	// TypedFold, when non-nil, is where the buffer looks for Fold's unboxed
	// form once a partition's values sit in a []T column (Register):
	// a value with a method FoldTyped(acc *T, v T), or — for a fold that
	// returns acc whatever v is — a method KeepsFirst(). Usually the value
	// Fold is a method of. The unboxed fold must compute what Fold computes
	// and leave Size(key, acc) as it was: the buffer does not ask again.
	TypedFold any
	// Size returns one record's accounted bytes; required. It must be a
	// pure function of (key, value) so spilled records account identically
	// after decode.
	Size func(key string, v any) int64
	// Cancel, when non-nil, is polled on a bounded stride inside Drain's
	// replay loops (including the k-way merge); a non-nil return aborts the
	// drain with that error, so a cancelled job stops mid-merge instead of
	// replaying every spilled record first.
	Cancel func() error
}

// Stats is a Buffer's spill activity. Deterministic for a fixed input,
// budget and partitioner.
type Stats struct {
	// Runs is the number of sorted runs written.
	Runs int64
	// SpilledBytes is the accounted bytes across all runs.
	SpilledBytes int64
	// PeakBytes is the in-memory high-water mark.
	PeakBytes int64
}

var errClosed = errors.New("spill: buffer closed")

// Buffer is a partitioned KV buffer with a memory budget. One task
// goroutine Adds; after the map barrier, concurrent reduce goroutines may
// Drain and Release distinct partitions. Close may race only with Add
// (an abandoned speculative attempt being discarded mid-emit) — the
// mutex covers exactly that pair.
type Buffer struct {
	cfg       Config
	fold      folder
	parts     []Records
	slots     []slotTable // per-partition key -> position, Fold only
	idx       []KeyIndex  // spill's sort index, reused across spills
	mem       int64
	pinnedMem int64
	peak      int64

	mu       sync.Mutex // guards dir, seq, runs, runCount, spilledBytes, closed
	dir      string
	seq      int
	runs     []*run
	runCount int64
	spilled  int64
	closed   bool
	released atomic.Int64
}

// NewBuffer returns an empty buffer.
func NewBuffer(cfg Config) *Buffer {
	if cfg.Parts < 1 {
		panic("spill: Config.Parts must be >= 1")
	}
	if cfg.Size == nil {
		panic("spill: Config.Size is required")
	}
	b := &Buffer{cfg: cfg, parts: make([]Records, cfg.Parts), fold: folder{boxed: cfg.Fold, typed: cfg.TypedFold}}
	if cfg.Fold != nil {
		b.slots = make([]slotTable, cfg.Parts)
	}
	return b
}

// Add routes one record into partition part, folding into an existing
// accumulator when configured, and spills if the budget is exceeded.
func (b *Buffer) Add(part int, key string, v any) error {
	k := MakeKeyIndex(key, 0)
	r, i, err := b.find(part, k, key)
	if err != nil {
		return err
	}
	if i >= 0 {
		b.foldInto(r, i, key, v)
		return b.checkBudget()
	}
	bytes := b.cfg.Size(key, v)
	// The column answers, so that asking costs no registry lookup a record.
	pinned := b.cfg.Budget > 0 && !r.column(v).encodable(v)
	r.append(k, key, v, bytes, pinned)
	return b.booked(bytes, pinned)
}

// AddFrom is Add of src's record i, whose key is key, under the size src
// holds for it: column to column, without a box when both hold one type.
// src is only read.
func (b *Buffer) AddFrom(part int, key string, src *Records, i int) error {
	h := *src.heads.At(i)
	r, j, err := b.find(part, h.key(), key)
	if err != nil {
		return err
	}
	if j >= 0 {
		if !r.vals.foldFrom(j, src.vals, i, &b.fold) {
			b.foldInto(r, j, key, src.vals.at(i))
		}
		return b.checkBudget()
	}
	pinned := b.cfg.Budget > 0 && !src.vals.encodableAt(i)
	r.appendFrom(h.key(), key, src.vals, i, h.bytes(), pinned)
	return b.booked(h.bytes(), pinned)
}

// find returns partition part and, when the buffer folds, where key's
// accumulator is in it; -1 books the key for the record appended next.
func (b *Buffer) find(part int, k KeyIndex, key string) (*Records, int, error) {
	if part < 0 || part >= len(b.parts) {
		return nil, 0, fmt.Errorf("spill: partition %d out of range [0,%d)", part, len(b.parts))
	}
	r := &b.parts[part]
	if b.slots == nil {
		return r, -1, nil
	}
	i, err := b.slots[part].findOrAdd(r, k, key, r.Len())
	return r, i, err
}

// booked counts a record just appended against the budget.
func (b *Buffer) booked(bytes int64, pinned bool) error {
	if pinned {
		b.pinnedMem += bytes
	}
	b.mem += bytes
	return b.checkBudget()
}

// foldInto folds v into the accumulator of record i of r, whose key is
// key. Unboxed, the accumulator changes in place and is of the type and
// size it was; through Fold it may come back as anything.
func (b *Buffer) foldInto(r *Records, i int, key string, v any) {
	if r.vals.fold(i, v, &b.fold) {
		return
	}
	acc := b.fold.boxed(r.vals.at(i), v)
	if !r.vals.set(i, acc) {
		r.vals = r.vals.boxed()
		r.vals.set(i, acc)
	}
	h := r.heads.At(i)
	if h.pinned() {
		b.pinnedMem -= h.bytes()
	}
	nb, pinned := b.cfg.Size(key, acc), b.cfg.Budget > 0 && !r.vals.encodable(acc)
	b.mem += nb - h.bytes()
	r.bytes += nb - h.bytes()
	*h = makeHead(h.key(), nb, pinned)
	if pinned {
		b.pinnedMem += nb
	}
}

func (b *Buffer) checkBudget() error {
	if b.mem > b.peak {
		b.peak = b.mem
	}
	if b.cfg.Budget <= 0 || b.mem <= b.cfg.Budget || b.mem == b.pinnedMem {
		return nil
	}
	return b.spill()
}

// spill writes every partition's spillable records as one run, each
// partition in (key, emission) order through a sort index — no record
// moves — and keeps pinned records (and the fold slots over them) in
// memory.
func (b *Buffer) spill() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	if b.dir == "" {
		d, err := os.MkdirTemp(b.cfg.Dir, "fsjoin-spill-")
		if err != nil {
			return err
		}
		b.dir = d
	}
	w, err := newRunWriter(b.dir, b.seq, b.cfg.Parts)
	if err != nil {
		return err
	}
	b.seq++
	var written int64
	for p := range b.parts {
		l := &b.parts[p]
		if l.Len() == 0 {
			continue
		}
		idx, err := l.sortedIndex(b.idx[:0], false)
		if err != nil {
			w.abort()
			return err
		}
		b.idx = idx
		for _, ix := range idx {
			if err := w.addAt(p, l, int(ix.Pos)); err != nil {
				w.abort()
				return err
			}
			written += l.heads.At(int(ix.Pos)).bytes()
		}
		b.keepPinned(p, l.Len()-len(idx))
	}
	r, err := w.finish()
	if err != nil {
		return err
	}
	b.runs = append(b.runs, r)
	b.runCount++
	b.spilled += written
	b.mem = b.pinnedMem
	return nil
}

// keepPinned shrinks partition p to its pinned records, in order, and
// re-points the partition's fold slots at them.
func (b *Buffer) keepPinned(p, pinned int) {
	l := &b.parts[p]
	if pinned == 0 {
		l.reset()
		if b.slots != nil {
			b.slots[p].reset()
		}
		return
	}
	var kept Records
	var slots slotTable
	for i := 0; kept.Len() < pinned; i++ {
		h := l.heads.At(i)
		if !h.pinned() {
			continue
		}
		k, key := h.key(), ""
		if k.Len == 9 {
			key = *l.long.At(i)
		}
		if b.slots != nil {
			// Positions only shrink here, so the slot is never refused.
			slots.findOrAdd(&kept, k, key, kept.Len())
		}
		kept.append(k, key, l.vals.at(i), h.bytes(), true)
	}
	*l = kept
	if b.slots != nil {
		b.slots[p] = slots
	}
}

// Drain replays one partition — runs first (in creation order), then the
// still-buffered tail — through the k-way merge, emitting each record with
// its accounted size, and returns the merge fan-in (1 when the partition
// never spilled). With a Fold configured, keys split across sources are
// re-folded so the partition again carries at most one record per key,
// exactly like the in-memory fast path. Concurrent Drains of distinct
// partitions are safe.
func (b *Buffer) Drain(part int, emit func(key string, v any, bytes int64)) (int, error) {
	ways, err := b.merge(part, emit)
	if ways != 0 || err != nil {
		return ways, err
	}
	tail := &b.parts[part]
	if tail.Len() == 0 {
		return 0, nil
	}
	i := 0
	tail.Each(func(key string, v any, bytes int64) bool {
		if b.cfg.Cancel != nil && i&(cancelStride-1) == 0 {
			err = b.cfg.Cancel()
		}
		i++
		if err == nil {
			emit(key, v, bytes)
		}
		return err == nil
	})
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// DrainTo is Drain into dst: a partition that never spilled is appended
// column by column, without boxing a value or rebuilding a key.
func (b *Buffer) DrainTo(part int, dst *Records) (int, error) {
	ways, err := b.merge(part, dst.Append)
	if ways != 0 || err != nil {
		return ways, err
	}
	tail := &b.parts[part]
	if tail.Len() == 0 {
		return 0, nil
	}
	if b.cfg.Cancel != nil {
		if err := b.cfg.Cancel(); err != nil {
			return 0, err
		}
	}
	dst.appendAll(tail)
	return 1, nil
}

// merge replays a partition that spilled through the k-way merge and
// returns its fan-in; 0 with no error means it never spilled, and nothing
// was emitted.
func (b *Buffer) merge(part int, emit func(key string, v any, bytes int64)) (int, error) {
	tail := &b.parts[part]
	var sources []mergeSource
	for _, r := range b.runs {
		if c := r.open(part); c != nil {
			sources = append(sources, c)
		}
	}
	if len(sources) == 0 {
		return 0, nil
	}
	if tail.Len() > 0 {
		// Concurrent drains of distinct partitions each need their own
		// index, so this one is not the buffer's.
		idx, err := tail.sortedIndex(make([]KeyIndex, 0, tail.Len()), true)
		if err != nil {
			return 0, err
		}
		sources = append(sources, &memSource{rs: tail, idx: idx, keys: KeyArena{n: len(idx)}})
	}
	err := kmerge(sources, b.cfg.Fold, b.cfg.Cancel, func(k string, v any) {
		emit(k, v, b.cfg.Size(k, v))
	})
	return len(sources), err
}

// Trim gives back the memory a buffer that spilled keeps for refilling, and
// the fold slots, which only Add reads. The task calls it when it has added
// its last record: the buffer then waits, possibly for the whole map phase,
// to be drained.
func (b *Buffer) Trim() {
	for p := range b.parts {
		b.parts[p].trim()
	}
	b.idx, b.slots = nil, nil
}

// Release drops one fully consumed partition; when every partition has
// been released the buffer closes itself, removing its spill files.
func (b *Buffer) Release(part int) {
	b.parts[part] = Records{}
	if b.slots != nil {
		b.slots[part] = slotTable{}
	}
	if int(b.released.Add(1)) == b.cfg.Parts {
		b.Close()
	}
}

// Close removes the buffer's spill files and directory. Idempotent; a
// closed buffer rejects further spills (its in-memory tail still Adds,
// which only matters for abandoned speculative attempts whose output is
// discarded anyway).
func (b *Buffer) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for _, r := range b.runs {
		r.close()
	}
	b.runs = nil
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
	return nil
}

// Stats returns the buffer's spill activity so far.
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Runs:         b.runCount,
		SpilledBytes: b.spilled,
		PeakBytes:    b.peak,
	}
}
