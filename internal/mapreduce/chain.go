package mapreduce

import (
	"fmt"
	"sort"

	"fsjoin/internal/spill"
)

// jobInput is what a job maps: KVs, or in a chained job the columns a fed
// stage kept.
type jobInput struct {
	kvs   []KV
	chain *chainInput
}

func (in jobInput) len() int { return len(in.kvs) + in.chain.len() }

// each calls fn with every record in order.
func (in jobInput) each(fn func(key string, v any)) {
	for _, kv := range in.kvs {
		fn(kv.Key, kv.Value)
	}
	if in.chain != nil {
		for _, out := range in.chain.outs {
			out.Each(func(key string, v any, _ int64) bool { fn(key, v); return true })
		}
	}
}

// chainInput is a fed stage's output in the columns its tasks committed, in
// task order, addressed by position in their concatenation — the []KV Run
// would have assembled: outs[k] starts at position starts[k], and
// starts[len(outs)] is the total.
type chainInput struct {
	outs   []*spill.Records
	starts []int
}

func newChainInput(outs []*spill.Records) *chainInput {
	c := &chainInput{outs: outs, starts: make([]int, len(outs)+1)}
	for k, out := range outs {
		c.starts[k+1] = c.starts[k] + out.Len()
	}
	return c
}

// release gives the columns back to the shuffle's pools (Records.Release)
// once their one reader is done with them. A nil input, and one released
// already, have nothing to give.
func (c *chainInput) release() {
	if c == nil {
		return
	}
	for _, out := range c.outs {
		out.Release()
	}
}

func (c *chainInput) len() int {
	if c == nil {
		return 0
	}
	return c.starts[len(c.outs)]
}

// at returns the record at pos: how skip mode describes a quarantined unit.
func (c *chainInput) at(pos int32) (string, any) {
	k := sort.SearchInts(c.starts, int(pos)+1) - 1
	return c.outs[k].At(int(pos) - c.starts[k])
}

// mapUnits is a chained job's map task body: the identity map over
// ascending positions, counted as a []KV's records would be. With a
// combiner, each partition's fold table starts with room for the keys an
// identity map sends it on average, at most one per unit.
func (c *chainInput) mapUnits(ctx *Context, units []int32, f Fault, counters *Counters) {
	if ctx.shuffle != nil { // a skip-mode probe has none
		ctx.shuffle.buf.ExpectKeys((len(units) + ctx.shuffle.reducers - 1) / ctx.shuffle.reducers)
	}
	k := 0
	for n, pos := range units {
		ctx.CheckCancel()
		f.injectRecord(n, counters)
		for int(pos) >= c.starts[k+1] {
			k++
		}
		if ctx.shuffle != nil {
			ctx.shuffle.addFrom(c.outs[k], int(pos)-c.starts[k])
		}
	}
}

// EachU32 calls fn with every output record of res, a Feed result, in the
// order Output would hold them, its key as DecodeU32Key decodes it: the
// records of a task whose output column holds T's values unboxed, with no
// key string and no box, and those of any other task as Output would hold
// them. It consumes res, as Chain does: the columns go back to the
// shuffle's pools once read, and a later Chain or EachU32 of res is an
// error. It returns false, having called and consumed nothing, for a
// result that holds its output in Output, which the caller reads instead.
// A key of another length, or a value of another type, panics.
func EachU32[T any](res *Result, fn func(key uint32, v T)) (bool, error) {
	if res.chain == nil {
		return false, nil
	}
	if err := res.consume(); err != nil {
		return false, fmt.Errorf("mapreduce: %w", err)
	}
	defer res.chain.release()
	for _, out := range res.chain.outs {
		if !spill.EachTyped(out, func(k spill.KeyIndex, v T) {
			if k.Len != 4 {
				badKeyLen(spill.ShortKey(k), 4)
			}
			fn(uint32(k.Prefix>>32), v)
		}) {
			out.Each(func(key string, v any, _ int64) bool {
				fn(DecodeU32Key(key), v.(T))
				return true
			})
		}
	}
	return true, nil
}
