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
		Size:   recordBytes,
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
	if err := s.buf.Add(s.route(key), key, value); err != nil {
		panic(&enginePanic{err: fmt.Errorf("shuffle spill: %w", err)})
	}
}

// addFrom is add of src's record i, whose key is key (spill.Buffer.AddFrom).
func (s *shuffleSink) addFrom(key string, src *spill.Records, i int) {
	if err := s.buf.AddFrom(s.route(key), key, src, i); err != nil {
		panic(&enginePanic{err: fmt.Errorf("shuffle spill: %w", err)})
	}
}

func (s *shuffleSink) route(key string) int {
	r := s.part(key, s.reducers)
	if r < 0 || r >= s.reducers {
		panic(&enginePanic{err: fmt.Errorf("partitioner returned %d for %d reducers", r, s.reducers)})
	}
	return r
}

// close removes any spill files. Used for sinks that lose their attempt
// (retry, lost speculation) or whose job aborts; Buffer.Release covers the
// happy path.
func (s *shuffleSink) close() {
	if s != nil {
		s.buf.Close()
	}
}
