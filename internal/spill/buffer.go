// Package spill gives the MapReduce engine an out-of-core shuffle: a
// size-accounting partitioned KV buffer that, once a memory budget is
// exceeded, appends its records, each partition in emission order and
// length-prefixed, to the end of one temp file of its own. A reduce task's
// fetch decodes a spilled partition's segments of that file, in the order
// they were written, and then its in-memory tail onto the task's columns:
// that is emission order, so Group's one sort by (key, position) groups it
// exactly as it groups the partition had it stayed in memory —
// fold/combiner semantics included. Nothing sorts at spill time. The
// record container (List) and the key ordering (SortIndex) are shared
// with the engine's reduce side. This is the out-of-core half of Hadoop's
// sort-spill pipeline, which DESIGN.md §2 originally substituted away,
// reintroduced so the reproduction no longer caps out at datasets that fit
// in RAM (DESIGN.md §8).
//
// Values cross the disk boundary through a type-tagged codec registry
// (codec.go): one Register call per value type gives it its wire tag, its
// codec and, when it is pointer-free, its unboxed column in the buffer. A
// spill that meets a value whose type has no codec fails with ErrNoCodec;
// a buffer that never spills holds any value.
package spill

import (
	"bufio"
	"errors"
	"fmt"
	"io"
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
	// Dir is the directory of the buffer's spill file, an fsjoin-spill-*
	// temp file; "" means the OS temp dir. The file is created on the
	// first spill and removed by Close.
	Dir string
	// Fold, when non-nil, folds a new value into an existing accumulator
	// for the same key (the engine's fold-at-emit combiner). It must be
	// merge-capable — folding two accumulators must equal folding their
	// constituent values — because a fetch re-folds, oldest spill first,
	// the keys whose records were split across spills.
	Fold func(acc, v any) any
	// TypedFold, when non-nil, is where the buffer looks for Fold's unboxed
	// form once a partition's values sit in a []T column (Register):
	// a value with a method FoldTyped(acc *T, v T), or — for a fold that
	// returns acc whatever v is — a method KeepsFirst(). Usually the value
	// Fold is a method of. The unboxed fold must compute what Fold computes
	// and leave Size(key, acc) as it was: the buffer does not ask again.
	TypedFold any
	// Size returns one record's accounted bytes; required. It must be a
	// pure function of (key, value), so that an accumulator a fetch
	// re-folds is accounted as Add would have accounted it. A spilled
	// record carries the size it was accounted at, and a fetch does not
	// ask again.
	Size func(key string, v any) int64
	// Cancel, when non-nil, is polled on a bounded stride inside Fetch's
	// decode and fold loops and Drain's replay, and once by a Fetch that
	// hands a partition over in place; a non-nil return aborts the fetch
	// or drain with that error, so a cancelled job stops partway through
	// a spilled partition instead of decoding all of it first.
	Cancel func() error
}

// Stats is a Buffer's spill activity. Deterministic for a fixed input,
// budget and partitioner.
type Stats struct {
	// Runs is the number of spills: each appends one segment to the spill
	// file for every partition that holds records.
	Runs int64
	// SpilledBytes is the accounted bytes across all spills.
	SpilledBytes int64
	// PeakBytes is the in-memory high-water mark.
	PeakBytes int64
}

var errClosed = errors.New("spill: buffer closed")

// Buffer is a partitioned KV buffer with a memory budget. One task
// goroutine Adds, spills and reads Stats; after the map barrier,
// concurrent reduce goroutines may Drain and Release distinct partitions,
// and the last Release — or the job driver, when the job aborts — Closes
// it. Each task attempt has a buffer of its own, discarded before
// the next attempt starts, so nothing Adds to a buffer being closed. The
// mutex guards the spill state Close tears down (the file, its segments
// and the counts), so Close is safe from whichever goroutine ends the
// buffer.
type Buffer struct {
	cfg   Config
	fold  folder
	parts []Records
	slots []slotTable // per-partition key -> position, Fold only
	mem   int64
	peak  int64

	mu       sync.Mutex // guards f, end, segs, runCount, spilled, closed
	f        *os.File   // the spill file, created by the first spill
	end      int64      // where the next spill writes in f
	segs     [][]segment
	runCount int64
	spilled  int64
	closed   bool
	released atomic.Int64
}

// NewBuffer returns an empty buffer.
func NewBuffer(cfg Config) *Buffer {
	b := new(Buffer)
	b.Init(cfg)
	return b
}

// Init makes b an empty buffer in place, for a Buffer allocated with the
// struct that holds it.
func (b *Buffer) Init(cfg Config) {
	if cfg.Parts < 1 {
		panic("spill: Config.Parts must be >= 1")
	}
	if cfg.Size == nil {
		panic("spill: Config.Size is required")
	}
	*b = Buffer{cfg: cfg, parts: make([]Records, cfg.Parts), fold: folder{boxed: cfg.Fold, typed: cfg.TypedFold}}
	if cfg.Fold != nil {
		b.slots = make([]slotTable, cfg.Parts)
	}
}

// Add routes one record into partition part, folding into an existing
// accumulator when configured, and spills if the budget is exceeded. A key
// longer than MaxKeyLen is refused with ErrLongKey, the buffer unchanged.
func (b *Buffer) Add(part int, key string, v any) error {
	if err := CheckKey(key); err != nil {
		return err
	}
	k := MakeKeyIndex(key, 0)
	r, i, err := b.find(part, k)
	if err != nil {
		return err
	}
	if i >= 0 {
		b.mem += r.foldAt(i, key, v, &b.fold, b.cfg.Size)
		return b.checkBudget()
	}
	bytes := b.cfg.Size(key, v)
	r.append(k, v, bytes)
	b.mem += bytes
	return b.checkBudget()
}

// AddFrom is Add of src's record i under the size src holds for it: column
// to column, without a box when both hold one type, and the key as the
// integers it is held in. src is only read.
func (b *Buffer) AddFrom(part int, src *Records, i int) error {
	h := *src.heads.At(i)
	k := h.key()
	r, j, err := b.find(part, k)
	if err != nil {
		return err
	}
	if j >= 0 {
		if !r.vals.foldFrom(j, src.vals, i, &b.fold) {
			// Size takes the key as a string.
			b.mem += r.foldAt(j, ShortKey(k), src.vals.at(i), &b.fold, b.cfg.Size)
		}
		return b.checkBudget()
	}
	r.appendFrom(k, src.vals, i, h.bytes())
	b.mem += h.bytes()
	return b.checkBudget()
}

// AddTyped is Add of a record whose key k holds and whose value v is held
// unboxed and accounted at overhead plus its Codec.Size, as AppendTyped
// appends one: folded in place into the key's accumulator, or appended to
// the partition's column, then the budget checked. It adds nothing and
// reports false when the partition's column cannot take v unboxed
// (AppendTyped), or when the buffer folds and its fold has no unboxed form
// for the column; the caller then Adds the record.
func AddTyped[T any](b *Buffer, part int, k KeyIndex, v T, overhead int64) (bool, error) {
	if part < 0 || part >= len(b.parts) {
		return false, nil // Add reports it
	}
	c := typedColumn[T](&b.parts[part])
	if c == nil || b.slots != nil && !c.foldsUnboxed(&b.fold) {
		return false, nil
	}
	r, i, err := b.find(part, k)
	if err != nil {
		return true, err
	}
	if i >= 0 {
		c.foldValue(i, v, &b.fold)
		return true, b.checkBudget()
	}
	bytes := overhead + int64(c.codec.Size(v))
	appendTyped(r, c, k, v, bytes)
	b.mem += bytes
	return true, b.checkBudget()
}

// ExpectKeys sizes every partition's fold table, when the buffer folds, to
// hold n keys without growing, for a task that knows about how many
// records it will add; a table still grows past n.
func (b *Buffer) ExpectKeys(n int) {
	for p := range b.slots {
		b.slots[p].expect(n)
	}
}

// find returns partition part and, when the buffer folds, where the
// accumulator of the key k holds is in it; -1 books the key for the record
// appended next.
func (b *Buffer) find(part int, k KeyIndex) (*Records, int, error) {
	if part < 0 || part >= len(b.parts) {
		return nil, 0, fmt.Errorf("spill: partition %d out of range [0,%d)", part, len(b.parts))
	}
	r := &b.parts[part]
	if b.slots == nil {
		return r, -1, nil
	}
	i, err := b.slots[part].findOrAdd(r, k, r.Len())
	return r, i, err
}

func (b *Buffer) checkBudget() error {
	if b.mem > b.peak {
		b.peak = b.mem
	}
	if b.cfg.Budget <= 0 || b.mem <= b.cfg.Budget {
		return nil
	}
	return b.spill()
}

// writers holds the 64 KiB write buffers spills go through, one per
// spill in progress rather than one per buffer that ever spilled.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// spill appends every partition's records, in the order they sit in
// memory, to the end of the spill file — one segment per partition that
// holds any — and empties the partitions and their fold slots. A value
// with no codec fails it with ErrNoCodec; a failed spill indexes nothing
// and empties nothing, and the bytes it wrote past end are overwritten by
// the next spill or removed with the file.
func (b *Buffer) spill() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	if b.f == nil {
		f, err := os.CreateTemp(b.cfg.Dir, "fsjoin-spill-")
		if err != nil {
			return err
		}
		b.f, b.segs = f, make([][]segment, b.cfg.Parts)
	}
	w := writers.Get().(*bufio.Writer)
	defer func() {
		w.Reset(nil) // the pool holds no file
		writers.Put(w)
	}()
	w.Reset(io.NewOffsetWriter(b.f, b.end))
	end, err := b.write(w)
	if err != nil {
		for p, s := range b.segs {
			if n := len(s); n > 0 && s[n-1].off >= b.end {
				b.segs[p] = s[:n-1]
			}
		}
		return err
	}
	for p := range b.parts {
		b.spilled += b.parts[p].Bytes()
		b.parts[p].reset()
		if b.slots != nil {
			b.slots[p].reset()
		}
	}
	b.end = end
	b.runCount++
	b.mem = 0
	return nil
}

// write writes every partition's records through w, which writes at
// b.end, appends each partition's segment to its list, and returns where
// the written bytes end.
func (b *Buffer) write(w *bufio.Writer) (int64, error) {
	at := b.end
	for p := range b.parts {
		l := &b.parts[p]
		if l.Len() == 0 {
			continue
		}
		seg := segment{off: at, records: int64(l.Len())}
		for i := 0; i < l.Len(); i++ {
			frame, err := appendSpilled(w.AvailableBuffer(), l, i)
			if err != nil {
				return 0, err
			}
			if _, err := w.Write(frame); err != nil {
				return 0, err
			}
			at += int64(len(frame))
		}
		seg.end = at
		b.segs[p] = append(b.segs[p], seg)
	}
	return at, w.Flush()
}

// Drain replays one partition in key order, equal keys in emission order,
// emitting each record with its accounted size, and returns the fan-in:
// the partition's segments in the spill file, plus one for the in-memory
// tail when it holds any of it. It replays what Fetch hands over, so with
// a Fold configured a partition carries at most one record per key
// whether it spilled or not. Concurrent Drains of distinct partitions are safe.
// Outside the tests, the benchmark's spill.Buffer layer (bench/layers.go,
// spillBuffer) times Add then Drain.
func (b *Buffer) Drain(part int, emit func(key string, v any, bytes int64)) (int, error) {
	var fetched Records
	src, ways, err := b.Fetch(part, &fetched, new(Fetcher))
	if err != nil || ways == 0 {
		return 0, err
	}
	r := src.Recs // all of it
	idx, err := r.sortedIndex(make([]KeyIndex, 0, r.Len()))
	if err != nil {
		return 0, err
	}
	keys := NewKeyArena(len(idx))
	for j, ix := range idx {
		if b.cfg.Cancel != nil && j&(cancelStride-1) == 0 {
			if err := b.cfg.Cancel(); err != nil {
				return 0, err
			}
		}
		i := int(ix.Pos)
		emit(r.Key(i, keys), r.vals.at(i), r.heads.At(i).bytes())
	}
	return ways, nil
}

// Fetch is Drain for a reduce task that groups partitions where they lie
// (Group): a partition that never spilled is handed over in place, as a
// Source over the buffer's own records, which must then outlive it. One
// that spilled is decoded with f onto the end of dst (fetchSpilled), and
// the Source is what was appended. A reduce task hands the same dst and f
// to each of its fetches. The fan-in is Drain's.
func (b *Buffer) Fetch(part int, dst *Records, f *Fetcher) (Source, int, error) {
	if part < len(b.segs) && len(b.segs[part]) > 0 {
		lo := dst.Len()
		ways, err := b.fetchSpilled(part, dst, f)
		return Source{Recs: dst, Lo: lo, Hi: dst.Len()}, ways, err
	}
	tail := &b.parts[part]
	if tail.Len() == 0 {
		return Source{}, 0, nil
	}
	if b.cfg.Cancel != nil {
		if err := b.cfg.Cancel(); err != nil {
			return Source{}, 0, err
		}
	}
	return Source{Recs: tail, Hi: tail.Len()}, 1, nil
}

// Trim gives back the memory a buffer that spilled keeps for refilling and
// spilling again, and the fold slots, which only Add reads. The task calls
// it when it has added its last record: the buffer then waits, possibly
// for the whole map phase, to be drained.
func (b *Buffer) Trim() {
	for p := range b.parts {
		b.parts[p].trim()
	}
	b.slots = nil
}

// Release drops one fully consumed partition, handing its chunks back for
// reuse (Records.Release): the reduce task that fetched it must read
// nothing of it after, a partition is released once, and a Fetch must not
// follow. When every partition has been released the buffer closes
// itself, removing its spill file.
func (b *Buffer) Release(part int) {
	b.parts[part].Release()
	if int(b.released.Add(1)) == b.cfg.Parts {
		b.Close()
	}
}

// Close closes and removes the buffer's spill file. Idempotent; a closed
// buffer rejects further spills.
func (b *Buffer) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if b.f != nil {
		b.f.Close()
		os.Remove(b.f.Name())
		b.f, b.segs = nil, nil
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
