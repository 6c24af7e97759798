package spill

// A Fetcher is what a reduce task fetches spilled partitions with, one
// after another: the window their segments are read through and the scratch
// records a folding buffer's partition is decoded into, both reused from
// fetch to fetch. The zero value is ready for use.
type Fetcher struct {
	win     window
	scratch Records
	keys    KeyArena // the short keys a boxed fold's Config.Size is called with
	polls   int      // records the fetch has decoded or folded
}

// Release hands back the chunks of f's scratch (Records.Release), once
// the reduce task has fetched its last partition.
func (f *Fetcher) Release() { f.scratch.Release() }

// cancelStride bounds how many records a fetch decodes or folds, or a
// drain replays, between Cancel polls — matched to the engine's per-record
// cancellation stride so a deadline interrupts a wide partition within ~a
// thousand records.
const cancelStride = 1024

// fetchSpilled decodes partition part, which spilled, onto the end of dst
// and returns its fan-in. It decodes the partition's segments in the order
// they were written, then copies the in-memory tail, which yields the
// partition's records in emission order: a segment holds them in the order
// they were emitted, segment k holds only records emitted after those of
// segment k-1, and the tail holds the latest. Group, sorting by (key,
// position), thus sees each key's records in the order it would have seen
// them had nothing spilled.
//
// A folding buffer decodes into f's scratch instead and folds that onto
// dst (foldOnto), so dst again gets at most one record per key. Either way
// the records arrive in a column of the kind the partition was held in, so
// they are grouped, and their accumulators held, as they would have been
// in memory.
func (b *Buffer) fetchSpilled(part int, dst *Records, f *Fetcher) (int, error) {
	tail := &b.parts[part]
	out := dst
	if b.cfg.Fold != nil {
		f.scratch.reset()
		out = &f.scratch
	}
	segs := b.segs[part]
	f.win.fit(segs)
	f.polls = 0
	if err := b.decode(segs, out, f); err != nil {
		return 0, err
	}
	ways := len(segs)
	if tail.Len() > 0 {
		ways++
		for i := 0; i < tail.Len(); i++ {
			if err := b.poll(f); err != nil {
				return 0, err
			}
			if err := out.appendAt(tail, i); err != nil {
				return 0, err
			}
		}
	}
	if out == &f.scratch {
		return ways, b.foldOnto(dst, f)
	}
	return ways, nil
}

// foldOnto appends to dst one record per key of f's scratch, in key order:
// the key's first record with each later one folded into it, in position
// order — unboxed where dst's column and the fold allow it, and otherwise
// through Fold and accounted anew with Size, as Add folds. Position order
// is emission order, and Fold is merge-capable, so the accumulator is the
// one the buffer would have held had it never spilled.
func (b *Buffer) foldOnto(dst *Records, f *Fetcher) error {
	scratch := &f.scratch
	p := indexPool.get(scratch.Len())
	defer indexPool.put(p)
	idx, err := scratch.sortedIndex(*p)
	if err != nil {
		return err
	}
	at := 0 // where the accumulator of idx[g]'s key is in dst
	for g, ix := range idx {
		if err := b.poll(f); err != nil {
			return err
		}
		i := int(ix.Pos)
		if g == 0 || CompareKeys(idx[g-1], ix) != 0 {
			at = dst.Len()
			err = dst.appendAt(scratch, i)
		} else if !dst.vals.foldFrom(at, scratch.vals, i, &b.fold) {
			_, err = dst.foldAt(at, dst.Key(at, &f.keys), scratch.vals.at(i), &b.fold, b.cfg.Size)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// poll calls Config.Cancel once every cancelStride records f decodes or
// folds, the first included.
func (b *Buffer) poll(f *Fetcher) error {
	f.polls++
	if b.cfg.Cancel != nil && (f.polls-1)&(cancelStride-1) == 0 {
		return b.cfg.Cancel()
	}
	return nil
}

// decode appends the records of segs, segments of the spill file, to out
// in stored order, reading them through f's window: a key as the head's
// prefix and length, a value of the type of out's typed column straight
// into it, and each record at the accounted size its frame carries.
func (b *Buffer) decode(segs []segment, out *Records, f *Fetcher) error {
	for _, s := range segs {
		f.win.open(b.f, s)
		for {
			ok, err := f.win.next(out)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := b.poll(f); err != nil {
				return err
			}
		}
	}
	return nil
}
