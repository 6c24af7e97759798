package mapreduce

import (
	"fmt"

	"fsjoin/internal/spill"
)

// shuffleSink is one map task's pre-partitioned output: a spill.Buffer
// with one partition per reduce task, filled at Emit time through the job
// partitioner (map-side pre-partitioning). When the job has a combiner,
// emissions fold into per-key accumulator slots as they arrive — the
// engine's only combine path. Under a memory budget the buffer sorts and
// spills runs to disk and the reduce-side drain merges them back
// (DESIGN.md §8); with no budget it is a pure in-memory buffer, the
// engine's historical behaviour.
//
// Record order within a partition equals the order a global partition pass
// would produce: without spilling, the restriction of the task's emission
// order to one partition; with spilling, the key-sorted merge of that
// order, which the reduce phase's group-and-sort normalises to the same
// downstream bytes.
type shuffleSink struct {
	part     func(key string, reducers int) int
	reducers int
	buf      *spill.Buffer
}

func newShuffleSink(part func(string, int) int, reducers int, folder Folder, budget int64, dir string, cancel func() error) *shuffleSink {
	sc := spill.Config{
		Parts:  reducers,
		Budget: budget,
		Dir:    dir,
		Size:   func(key string, v any) int64 { return int64(len(key) + sizeOf(v) + 8) },
		Cancel: cancel,
	}
	if folder != nil {
		sc.Fold, sc.TypedFold = folder.Fold, folder
	}
	return &shuffleSink{part: part, reducers: reducers, buf: spill.NewBuffer(sc)}
}

// add routes one emission to its reduce partition, folding into an existing
// accumulator slot when a combiner is active. A spill failure (disk full,
// unwritable dir) panics like any task fault, so the attempt fails and the
// engine's retry machinery takes over.
func (s *shuffleSink) add(key string, value any) {
	r := s.part(key, s.reducers)
	if r < 0 || r >= s.reducers {
		panic(&enginePanic{err: fmt.Errorf("partitioner returned %d for %d reducers", r, s.reducers)})
	}
	if err := s.buf.Add(r, key, value); err != nil {
		panic(&enginePanic{err: fmt.Errorf("shuffle spill: %w", err)})
	}
}

// drain replays one partition's records with per-record accounted sizes,
// merging spilled runs back in; it returns the merge fan-in (≤ 1 when the
// partition never touched disk). Concurrent drains of distinct partitions
// are safe.
func (s *shuffleSink) drain(r int, emit func(key string, value any, bytes int64)) (int, error) {
	return s.buf.Drain(r, emit)
}

// release drops one consumed partition so its memory (and, once all
// partitions are consumed, its spill files) is reclaimed before the whole
// reduce phase finishes. Distinct reduce workers release distinct
// partitions, so concurrent calls do not race.
func (s *shuffleSink) release(r int) {
	s.buf.Release(r)
}

// close removes any spill files. Used for sinks that lose their attempt
// (retry, lost speculation) or whose job aborts; release covers the happy
// path.
func (s *shuffleSink) close() {
	if s != nil {
		s.buf.Close()
	}
}
