package mapreduce

import (
	"fmt"

	"fsjoin/internal/spill"
)

// shuffleSink is one map task's pre-partitioned output: a spill.Buffer
// with one partition per reduce task, filled at Emit time through the job
// partitioner (map-side pre-partitioning). When the job has a combiner,
// emissions fold into per-key accumulator slots as they arrive — the
// engine's only combine path. Under a memory budget the buffer appends
// what it holds, unsorted, to its one spill file each time the budget is
// exceeded, and a reduce task's fetch decodes its partition's segments
// back (DESIGN.md §8); with no budget it is a pure in-memory buffer, the
// engine's historical behaviour.
//
// Record order within a partition, as a reduce task fetches it, equals the
// order a global partition pass would produce: the restriction of the
// task's emission order to one partition, spilled or not — except that a
// folding buffer that spilled hands over one folded record per key, in key
// order — which the reduce phase's group-and-sort puts in key order.
type shuffleSink struct {
	// part is the job's Partitioner; nil routes by DefaultPartitioner.
	part     func(key uint64, reducers int) int
	reducers int
	// sizer sizes buf's values: as they are added, and in the concurrent
	// fetches of its partitions.
	sizer spill.Sizer
	buf   spill.Buffer
}

func newShuffleSink(part func(uint64, int) int, reducers int, folder Folder, budget int64, dir string, cancel func() error) *shuffleSink {
	s := &shuffleSink{part: part, reducers: reducers}
	sc := spill.Config{
		Parts:  reducers,
		Budget: budget,
		Dir:    dir,
		Size:   func(key string, v any) int64 { return recordBytes(key, s.sizer.Size(v)) },
		Cancel: cancel,
	}
	if folder != nil {
		sc.Fold, sc.TypedFold = folder.Fold, folder
	}
	// In place: the buffer is allocated with the sink.
	s.buf.Init(sc)
	return s
}

// add routes one emission, of a key Emit has checked, to its reduce
// partition, folding into an existing accumulator slot when a combiner is
// active. A value the partition refuses, or a spill failure (disk full,
// unwritable dir), panics like any task fault (emitted), so the attempt
// fails.
func (s *shuffleSink) add(key string, value any) {
	emitted(s.buf.Add(s.route(spill.MakeKeyIndex(key, 0)), key, value))
}

// addFrom is add of src's record i (spill.Buffer.AddFrom), routed by the
// integer its key is held in.
func (s *shuffleSink) addFrom(src *spill.Records, i int) {
	emitted(s.buf.AddFrom(s.route(src.Abbrev(i)), src, i))
}

// addTyped is add of a record whose key k holds and whose value is a T,
// through spill.AddTyped.
func addTyped[T any](s *shuffleSink, k spill.KeyIndex, v T, overhead int64) {
	emitted(spill.AddTyped(&s.buf, s.route(k), k, v, overhead))
}

// route returns the reduce partition of the key k holds.
func (s *shuffleSink) route(k spill.KeyIndex) int {
	if s.part == nil {
		return DefaultPartitioner(k, s.reducers)
	}
	r := s.part(k.Prefix, s.reducers)
	if r < 0 || r >= s.reducers {
		panic(&enginePanic{err: fmt.Errorf("partitioner returned %d for %d reducers", r, s.reducers)})
	}
	return r
}

// close removes the sink's spill file, if any. Used for the sinks of a job
// that aborts; Buffer.Release covers the happy path and a failed attempt.
func (s *shuffleSink) close() {
	if s != nil {
		s.buf.Close()
	}
}
