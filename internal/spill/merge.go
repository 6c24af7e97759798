package spill

// mergeSource yields one partition's records in key order. Sources are
// merged with a tie-break on source index, so a record emitted earlier
// (spilled in an earlier run, or still in the tail buffer — always the
// last source) replays earlier. Combined with the stable per-run sort,
// equal keys come out in exact emission order, which is what makes the
// spilled path byte-identical to the in-memory one downstream.
type mergeSource interface {
	next() (key string, v any, ok bool, err error)
}

// memSource drains a buffer's in-memory tail in the order of its sorted
// index.
type memSource struct {
	rs   *Records
	idx  []KeyIndex
	keys keyArena
	i    int
}

func (s *memSource) next() (string, any, bool, error) {
	if s.i >= len(s.idx) {
		return "", nil, false, nil
	}
	pos := int(s.idx[s.i].Pos)
	s.i++
	return s.rs.key(pos, &s.keys), s.rs.vals.at(pos), true, nil
}

// mergeItem is one heap element: the head record of source src.
type mergeItem struct {
	key string
	val any
	src int
}

// mergeHeap is a binary min-heap ordered by (key, src).
type mergeHeap []mergeItem

func (h mergeHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].src < h[j].src
}

func (h mergeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h mergeHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// cancelStride bounds how many records a drain replays between Cancel
// polls — matched to the engine's per-record cancellation stride so a
// deadline interrupts a wide merge within ~a thousand records.
const cancelStride = 1024

// kmerge replays sources in merged (key, source) order. With a non-nil
// fold, maximal key-equal record groups collapse into a single folded
// record, restoring the ≤-one-record-per-key invariant a fold-at-emit
// buffer had before its keys were split across runs; fold application
// order is exactly emission order, so any merge-capable Folder (fold over
// accumulators ≡ fold over values, true of every combiner in this repo)
// reproduces the in-memory accumulator bit-for-bit. A non-nil cancel is
// polled every cancelStride records and aborts the merge when it errors.
func kmerge(sources []mergeSource, fold func(acc, v any) any, cancel func() error, emit func(key string, v any)) error {
	h := make(mergeHeap, 0, len(sources))
	for i, s := range sources {
		k, v, ok, err := s.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, mergeItem{k, v, i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	pop := func() (mergeItem, error) {
		top := h[0]
		k, v, ok, err := sources[top.src].next()
		if err != nil {
			return top, err
		}
		if ok {
			h[0] = mergeItem{k, v, top.src}
			h.down(0)
		} else {
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			h.down(0)
		}
		return top, nil
	}
	var polls int
	for len(h) > 0 {
		if cancel != nil {
			if polls&(cancelStride-1) == 0 {
				if err := cancel(); err != nil {
					return err
				}
			}
			polls++
		}
		top, err := pop()
		if err != nil {
			return err
		}
		if fold == nil {
			emit(top.key, top.val)
			continue
		}
		acc := top.val
		for len(h) > 0 && h[0].key == top.key {
			nxt, err := pop()
			if err != nil {
				return err
			}
			acc = fold(acc, nxt.val)
		}
		emit(top.key, acc)
	}
	return nil
}
