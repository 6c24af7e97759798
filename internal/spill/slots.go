package spill

import "hash/maphash"

// slotTable finds a record of one partition by key, for fold-at-emit: an
// open-addressing table of record positions. It stores no keys — a probe
// compares against the key the record already holds — so a slot costs four
// bytes where a map[string]int entry costs a string header, an int and its
// share of a bucket. The zero value is an empty table.
type slotTable struct {
	pos  []int32 // record position + 1, 0 = empty; len is a power of two
	used int
}

// slotSeed varies probe order between processes, never what a lookup
// finds.
var slotSeed = maphash.MakeSeed()

// findOrAdd returns the position of key's record in l; when there is none
// it returns -1 and books the key at position l.Len(), where the caller
// must append the record next.
func (t *slotTable) findOrAdd(l *List[entry], key string) int {
	if 2*(t.used+1) > len(t.pos) {
		old := t.pos
		t.pos = make([]int32, max(16, 2*len(old)))
		for _, p := range old {
			if p != 0 {
				t.pos[t.probe(l, l.At(int(p-1)).key)] = p
			}
		}
	}
	i := t.probe(l, key)
	if p := t.pos[i]; p != 0 {
		return int(p - 1)
	}
	t.pos[i] = int32(l.Len()) + 1
	t.used++
	return -1
}

// probe returns the slot holding key's record, or the empty slot where it
// belongs. The table always has an empty slot.
func (t *slotTable) probe(l *List[entry], key string) uint64 {
	mask := uint64(len(t.pos) - 1)
	i := maphash.String(slotSeed, key) & mask
	for t.pos[i] != 0 && l.At(int(t.pos[i]-1)).key != key {
		i = (i + 1) & mask
	}
	return i
}

// reset empties the table, keeping its memory.
func (t *slotTable) reset() {
	clear(t.pos)
	t.used = 0
}
