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
// (codec.go). A record whose value type has no codec is pinned in memory
// instead of spilled — the budget turns soft rather than the job failing —
// so arbitrary jobs (engine tests, user code) stay correct under a
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

type entry struct {
	key    string
	val    any
	bytes  int64
	pinned bool
}

var errClosed = errors.New("spill: buffer closed")

// Buffer is a partitioned KV buffer with a memory budget. One task
// goroutine Adds; after the map barrier, concurrent reduce goroutines may
// Drain and Release distinct partitions. Close may race only with Add
// (an abandoned speculative attempt being discarded mid-emit) — the
// mutex covers exactly that pair.
type Buffer struct {
	cfg       Config
	parts     []List[entry]
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
	b := &Buffer{cfg: cfg, parts: make([]List[entry], cfg.Parts)}
	if cfg.Fold != nil {
		b.slots = make([]slotTable, cfg.Parts)
	}
	return b
}

// Add routes one record into partition part, folding into an existing
// accumulator when configured, and spills if the budget is exceeded.
func (b *Buffer) Add(part int, key string, v any) error {
	if part < 0 || part >= len(b.parts) {
		return fmt.Errorf("spill: partition %d out of range [0,%d)", part, len(b.parts))
	}
	if b.slots != nil {
		if i := b.slots[part].findOrAdd(&b.parts[part], key); i >= 0 {
			e := b.parts[part].At(i)
			if e.pinned {
				b.pinnedMem -= e.bytes
			}
			e.val = b.cfg.Fold(e.val, v)
			nb := b.cfg.Size(key, e.val)
			b.mem += nb - e.bytes
			e.bytes = nb
			e.pinned = b.cfg.Budget > 0 && !Encodable(e.val)
			if e.pinned {
				b.pinnedMem += nb
			}
			return b.checkBudget()
		}
	}
	e := entry{key: key, val: v, bytes: b.cfg.Size(key, v)}
	if b.cfg.Budget > 0 && !Encodable(v) {
		e.pinned = true
		b.pinnedMem += e.bytes
	}
	b.parts[part].Append(e)
	b.mem += e.bytes
	return b.checkBudget()
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
		idx, err := sortedIndex(l, b.idx[:0], false)
		if err != nil {
			w.abort()
			return err
		}
		b.idx = idx
		for _, ix := range idx {
			e := l.At(int(ix.Pos))
			if err := w.add(p, e.key, e.val); err != nil {
				w.abort()
				return err
			}
			written += e.bytes
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

// sortedIndex appends to idx a key index over l's records — its pinned
// ones only when asked — in record order, as SortIndex wants it, and sorts
// it.
func sortedIndex(l *List[entry], idx []KeyIndex, pinned bool) ([]KeyIndex, error) {
	if err := Indexable(l.Len()); err != nil {
		return nil, err
	}
	for i := 0; i < l.Len(); i++ {
		if e := l.At(i); pinned || !e.pinned {
			idx = append(idx, MakeKeyIndex(e.key, i))
		}
	}
	SortIndex(idx, func(pos int32) string { return l.At(int(pos)).key })
	return idx, nil
}

// keepPinned shrinks partition p to its pinned records, in order, and
// re-points the partition's fold slots at them.
func (b *Buffer) keepPinned(p, pinned int) {
	l := &b.parts[p]
	if pinned == 0 {
		l.Reset()
		if b.slots != nil {
			b.slots[p].reset()
		}
		return
	}
	var kept List[entry]
	var slots slotTable
	for i := 0; kept.Len() < pinned; i++ {
		e := l.At(i)
		if !e.pinned {
			continue
		}
		if b.slots != nil {
			slots.findOrAdd(&kept, e.key)
		}
		kept.Append(*e)
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
	tail := &b.parts[part]
	var sources []mergeSource
	for _, r := range b.runs {
		if c := r.open(part); c != nil {
			sources = append(sources, c)
		}
	}
	if len(sources) == 0 {
		for i := 0; i < tail.Len(); i++ {
			if b.cfg.Cancel != nil && i&(cancelStride-1) == 0 {
				if err := b.cfg.Cancel(); err != nil {
					return 0, err
				}
			}
			e := tail.At(i)
			emit(e.key, e.val, e.bytes)
		}
		if tail.Len() == 0 {
			return 0, nil
		}
		return 1, nil
	}
	if tail.Len() > 0 {
		// Concurrent drains of distinct partitions each need their own
		// index, so this one is not the buffer's.
		idx, err := sortedIndex(tail, make([]KeyIndex, 0, tail.Len()), true)
		if err != nil {
			return 0, err
		}
		sources = append(sources, &memSource{es: tail, idx: idx})
	}
	err := kmerge(sources, b.cfg.Fold, b.cfg.Cancel, func(k string, v any) {
		emit(k, v, b.cfg.Size(k, v))
	})
	return len(sources), err
}

// PartitionRecords returns how many records partition part holds in
// memory and in runs: what Drain emits, or with a Fold an upper bound on
// it (keys split across runs merge back into one record).
func (b *Buffer) PartitionRecords(part int) int {
	n := b.parts[part].Len()
	for _, r := range b.runs {
		n += int(r.segs[part].records)
	}
	return n
}

// Trim gives back the memory a buffer that spilled keeps for refilling.
// The task calls it when it has added its last record: the buffer then
// waits, possibly for the whole map phase, to be drained.
func (b *Buffer) Trim() {
	for p := range b.parts {
		b.parts[p].Trim()
	}
	b.idx = nil
}

// Release drops one fully consumed partition; when every partition has
// been released the buffer closes itself, removing its spill files.
func (b *Buffer) Release(part int) {
	b.parts[part] = List[entry]{}
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
