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
	// part is the job's Partitioner; nil routes by DefaultPartitioner, which
	// a record whose key is at most eight bytes needs no key string for.
	part     func(key string, reducers int) int
	reducers int
	// sizer sizes buf's values: as they are added, and in the concurrent
	// fetches of its partitions.
	sizer spill.Sizer
	buf   spill.Buffer
	keys  spill.KeyArena // key strings addFrom hands a partitioner
}

func newShuffleSink(part func(string, int) int, reducers int, folder Folder, budget int64, dir string, cancel func() error) *shuffleSink {
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

// add routes one emission to its reduce partition, folding into an existing
// accumulator slot when a combiner is active. A spill failure (disk full,
// unwritable dir) panics like any task fault, so the attempt fails and the
// engine's retry machinery takes over.
func (s *shuffleSink) add(key string, value any) {
	if err := s.buf.Add(s.route(key), key, value); err != nil {
		panic(&enginePanic{err: fmt.Errorf("shuffle spill: %w", err)})
	}
}

// addFrom is add of src's record i (spill.Buffer.AddFrom). Under the
// default partitioner a key of at most eight bytes is routed by the
// integer it is held in; any other key is handed over as a string.
func (s *shuffleSink) addFrom(src *spill.Records, i int) {
	var r int
	if k := src.Abbrev(i); s.part == nil && k.Len <= 8 {
		r = prefixPartition(k, s.reducers)
	} else {
		r = s.route(src.Key(i, &s.keys))
	}
	if err := s.buf.AddFrom(r, src, i); err != nil {
		panic(&enginePanic{err: fmt.Errorf("shuffle spill: %w", err)})
	}
}

func (s *shuffleSink) route(key string) int {
	if s.part == nil {
		return DefaultPartitioner(key, s.reducers)
	}
	r := s.part(key, s.reducers)
	if r < 0 || r >= s.reducers {
		panic(&enginePanic{err: fmt.Errorf("partitioner returned %d for %d reducers", r, s.reducers)})
	}
	return r
}

// close removes the sink's spill file, if any. Used for sinks of a failed attempt or of
// a job that aborts; Buffer.Release covers the happy path.
func (s *shuffleSink) close() {
	if s != nil {
		s.buf.Close()
	}
}
