package spill

// slotTable finds a record of one partition by key, for fold-at-emit: an
// open-addressing table of (hash, position) slots. A probe compares hashes
// in the table and confirms the one that matches against the partition's
// key column — two integers, no string — and growing re-places the slots by the hash they hold, without reading a
// record. The zero value is an empty table.
type slotTable struct {
	slots []slot // len is a power of two
	used  int
}

// slot is one key's hash, of which the low bits are where its probe
// starts, and where its record is.
type slot struct {
	hash uint32
	pos  int32 // record position + 1, 0 = empty
}

// slotHash hashes the key k holds.
func slotHash(k KeyIndex) uint32 {
	// The finalizer of MurmurHash3: prefixes are packed integers that
	// differ in a few low or high bytes, and every bit must reach the slot.
	h := k.Prefix + uint64(k.Len)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h >> 32)
}

// findOrAdd returns the position of the record of the key k holds among
// the n records of partition r; when there is none it returns
// -1 and books the key at position n, where the caller must append the
// record next. A position past what a slot — and a sort index — can hold is
// refused.
func (t *slotTable) findOrAdd(r *Records, k KeyIndex, n int) (int, error) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]slot, max(16, 2*len(old)))
		mask := uint32(len(t.slots) - 1)
		for _, s := range old {
			if s.pos != 0 {
				i := s.hash & mask
				for t.slots[i].pos != 0 {
					i = (i + 1) & mask
				}
				t.slots[i] = s
			}
		}
	}
	hash, mask := slotHash(k), uint32(len(t.slots)-1)
	i := hash & mask
	for ; t.slots[i].pos != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.hash == hash {
			if h := r.heads.At(int(s.pos - 1)); h.prefix == k.Prefix && h.len() == k.Len {
				return int(s.pos - 1), nil
			}
		}
	}
	if err := Indexable(n + 1); err != nil {
		return 0, err
	}
	t.slots[i] = slot{hash: hash, pos: int32(n) + 1}
	t.used++
	return -1, nil
}

// expect makes an empty table room for n keys: the power of two at least
// 2n, and at least the 16 slots a table starts at.
func (t *slotTable) expect(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.slots, t.used = make([]slot, size), 0
}

// reset empties the table, keeping its memory.
func (t *slotTable) reset() {
	clear(t.slots)
	t.used = 0
}
