// Package core implements FS-Join itself (Sections III–V): the three-phase
// Ordering → Filtering → Verification MapReduce pipeline built on vertical
// partitioning, with optional horizontal partitioning, four filters and
// three join kernels. This is the paper's primary contribution.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"fsjoin/internal/filters"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/partition"
	"fsjoin/internal/result"
	"fsjoin/internal/rsinput"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Options configures one FS-Join execution.
type Options struct {
	// Fn is the similarity function (default Jaccard, as in the paper).
	Fn similarity.Func
	// Theta is the similarity threshold in (0, 1].
	Theta float64
	// PivotMethod selects vertical pivots. The zero value is
	// partition.Random; the paper's choice, EvenTF, is what the public
	// layer passes by default.
	PivotMethod partition.PivotMethod
	// VerticalPartitions is the number of fragments (paper default 30);
	// 0 means 3 × cluster nodes.
	VerticalPartitions int
	// HorizontalPivots is the number t of length pivots, yielding 2t+1
	// horizontal partitions. 0 disables horizontal partitioning
	// (FS-Join-V).
	HorizontalPivots int
	// JoinMethod is the fragment join kernel. The zero value is
	// fragjoin.Loop; the paper's choice, Prefix, is what the public layer
	// passes by default.
	JoinMethod fragjoin.Method
	// Filters is the enabled filter set (default All). The Prefix bit is
	// normalised to match JoinMethod.
	Filters filters.Set
	// Cluster is the cost model (default: the paper's 10-node cluster).
	Cluster *mapreduce.Cluster
	// Seed drives the Random pivot method.
	Seed int64
	// PaperPrefix switches the Prefix join to the paper's literal
	// segment-local prefix (aggressive, potentially lossy — see
	// fragjoin.Params.PaperPrefix). Off by default.
	PaperPrefix bool
	// OrderKind selects the global ordering strategy (default: the
	// paper's ascending term frequency).
	OrderKind order.Kind
	// LocalParallelism runs that many engine tasks concurrently on the
	// local machine; 0 or 1 is sequential (best cost-model fidelity) and a
	// negative value (mapreduce.AutoParallelism) uses one worker per core.
	// Results and all shuffle metrics are identical at any setting.
	LocalParallelism int
	// MemoryBudget is mapreduce.Config.MemoryBudgetBytes for every stage.
	MemoryBudget int64
	// Env is the execution environment (cancellation, fault policy, spill
	// and checkpoint directories) handed to the pipeline as is; see
	// mapreduce.Env.
	Env mapreduce.Env
	// Bitmap configures the hashed signature filter every join kernel
	// applies before exact intersections (DESIGN.md §11). The zero value is
	// auto: enabled, width from per-fragment length statistics, overridable
	// through the FSJOIN_BITMAP test switch. Results are
	// byte-identical with the filter on or off.
	Bitmap filters.BitmapConfig
}

// withDefaults normalises an Options value.
func (o Options) withDefaults() (Options, error) {
	if o.Theta <= 0 || o.Theta > 1 {
		return o, fmt.Errorf("fsjoin: theta %v outside (0, 1]", o.Theta)
	}
	if o.Cluster == nil {
		o.Cluster = mapreduce.DefaultCluster()
	}
	if o.VerticalPartitions <= 0 {
		o.VerticalPartitions = 3 * o.Cluster.Nodes
	}
	if o.Filters == 0 {
		o.Filters = filters.All
	}
	// The Prefix filter bit and the Prefix join method are one feature.
	if o.JoinMethod == fragjoin.Prefix {
		o.Filters |= filters.Prefix
	} else {
		o.Filters &^= filters.Prefix
	}
	if err := o.Bitmap.Validate(); err != nil {
		return o, err
	}
	var err error
	o.Bitmap, err = o.Bitmap.Resolve()
	return o, err
}

// Result carries the join output and every measurement the experiments use.
type Result struct {
	// Pairs are the similar pairs, sorted canonically.
	Pairs []result.Pair
	// Pipeline exposes per-stage metrics (ordering, filtering,
	// verification).
	Pipeline *mapreduce.Pipeline
	// FilterOutputRecords is the number of (pair, partial-count) records
	// the filtering job emitted — the quantity Table IV reports.
	FilterOutputRecords int64
	// Pivots are the vertical pivot ranks used.
	Pivots []uint32
	// LengthPivots are the horizontal length pivots used (nil when
	// horizontal partitioning is off).
	LengthPivots []int
}

// SelfJoin runs FS-Join over one collection.
func SelfJoin(c *tokens.Collection, opt Options) (*Result, error) {
	return run(c, nil, opt, nil)
}

// Join runs FS-Join across two collections (R-S join); result pairs carry
// the R-side id first.
func Join(r, s *tokens.Collection, opt Options) (*Result, error) {
	if s == nil {
		return nil, errors.New("fsjoin: nil S collection")
	}
	return run(r, s, opt, nil)
}

// run executes the three phases. watch, when non-nil, is handed the
// filtering job's reducer and returns the reducer the job runs instead — a
// wrapper that observes its scratch.
func run(r, s *tokens.Collection, opt Options, watch func(*filterReducer) mapreduce.Reducer) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rs := s != nil
	p := mapreduce.NewPipeline("fs-join", opt.Cluster)
	p.Parallelism = opt.LocalParallelism // inherited by all three stages
	p.MemoryBudgetBytes = opt.MemoryBudget
	p.Env = opt.Env

	// ---- Phase 1: Ordering (one MR job over the union) ----
	union := rsinput.Union(r, s)
	o, err := order.ComputeKind(p, union, opt.OrderKind)
	if err != nil {
		return nil, err
	}
	input, err := rsinput.Ordered(o, r, s)
	if err != nil {
		return nil, err
	}

	// ---- Driver-side setup: the vertical pivots and horizontal
	// partitioner every filter map task uses. In the paper the ordering
	// job's output reaches them through HDFS and Algorithm 1's SetUp
	// (lines 2–4); in-process the mapper simply holds them. ----
	pivots := partition.SelectPivots(opt.PivotMethod, o, opt.VerticalPartitions-1, opt.Seed)
	horiz := partition.NoHorizontal(opt.Fn, opt.Theta)
	if opt.HorizontalPivots > 0 {
		var lengths []int
		for _, rec := range union.Records {
			lengths = append(lengths, rec.Len())
		}
		lp := partition.SelectLengthPivots(opt.Fn, opt.Theta, lengths, opt.HorizontalPivots)
		horiz = partition.NewHorizontal(opt.Fn, opt.Theta, lp)
	}
	splitter := partition.NewSplitter(pivots)

	// ---- Phase 2: Filtering (vertical partition map, fragment join
	// reduce) ----
	nv := splitter.Fragments()
	params := fragjoin.Params{
		Fn:          opt.Fn,
		Theta:       opt.Theta,
		Filters:     opt.Filters,
		Method:      opt.JoinMethod,
		RS:          rs,
		PaperPrefix: opt.PaperPrefix,
		Bitmap:      opt.Bitmap,
	}
	fr := &filterReducer{params: params}
	var reducer mapreduce.Reducer = fr
	if watch != nil {
		reducer = watch(fr)
	}
	filterRes, err := p.Feed(mapreduce.Config{
		Name: "filtering",
		// Fragments are routed round-robin to reducers, the paper's
		// fragment-per-node layout.
		Partitioner: func(key uint64, reducers int) int {
			h, v := uint32(key>>32), uint32(key)
			return int(h*uint32(nv)+v) % reducers
		},
	}, input, &filterMapper{splitter: splitter, horiz: horiz}, reducer)
	if err != nil {
		return nil, err
	}

	// ---- Phase 3: Verification (aggregate partial counts) ----
	verifyRes, err := p.Chain(mapreduce.Config{
		Name:     "verification",
		Combiner: result.SumOverlaps{},
	}, filterRes, &result.Verifier{Fn: opt.Fn, Theta: opt.Theta, RS: rs})
	if err != nil {
		return nil, err
	}

	return &Result{
		Pairs:               result.Pairs(verifyRes.Output, opt.Fn),
		Pipeline:            p,
		FilterOutputRecords: filterRes.Metrics.OutputRecords,
		Pivots:              pivots,
		LengthPivots:        horiz.Pivots(),
	}, nil
}

// filterMapper implements Algorithm 1's map: vertical (and horizontal)
// partitioning, emitting (partition id, segment+segInfo).
type filterMapper struct {
	splitter *partition.Splitter
	horiz    *partition.Horizontal
}

// mapScratch is one map attempt's split and assignment buffers, kept in
// Context.Local and refilled per record.
type mapScratch struct {
	segs []partition.Segment
	asgs []partition.Assignment
}

// Map implements mapreduce.Mapper.
func (m *filterMapper) Map(ctx *mapreduce.Context, kv mapreduce.KV) {
	tr := kv.Value.(rsinput.Record)
	rec := tr.Rec
	if rec.Len() == 0 {
		return
	}
	s, _ := ctx.Local.(*mapScratch)
	if s == nil {
		s = &mapScratch{}
		ctx.Local = s
	}
	s.segs = m.splitter.SplitAppend(s.segs[:0], rec)
	s.asgs = m.horiz.AssignAppend(s.asgs[:0], rec.Len())
	for _, asg := range s.asgs {
		for _, seg := range s.segs {
			mapreduce.EmitPair(ctx, uint32(asg.Partition), uint32(seg.Fragment), fragjoin.Seg{
				RID:    rec.RID,
				Origin: tr.Origin,
				Role:   asg.Role,
				StrLen: int32(seg.StrLen),
				Head:   int32(seg.Head),
				Tail:   int32(seg.Tail),
				Tokens: seg.Tokens,
			})
		}
	}
}

// filterReducer joins one fragment's segments and emits partial counts.
// The engine hands it each fragment as a typed group (FinishGroup): the
// segments' tokens are views into the group's column, read in place.
//
// Its scratch — the fragment's segments and the kernel's workspace — is the
// reduce attempt's, kept in Context.Local like the ordering job's counts
// (order.denseCounter): the first fragment of an attempt takes one from the
// process-wide free list and Cleanup hands it back, so the calls of a
// process allocate about as many as they run attempts at once, and every
// fragment after the first of a process reuses arrays already grown. An
// attempt that panics or is cancelled never reaches Cleanup, and its
// scratch is dropped with its Context.
type filterReducer struct {
	params fragjoin.Params
}

// filterScratch is one reduce attempt's scratch.
type filterScratch struct {
	segs []fragjoin.Seg
	w    fragjoin.Workspace
}

// scratches is the free list of filterScratch, shared by every filtering
// job of the process. It keeps at most GOMAXPROCS: no more attempts run at
// once.
var scratches struct {
	mu   sync.Mutex
	free []*filterScratch
}

// Reduce implements mapreduce.Reducer, for a caller that holds the
// fragment's segments boxed.
func (r *filterReducer) Reduce(ctx *mapreduce.Context, key string, values []any) {
	s := scratch(ctx)
	s.segs = s.segs[:0]
	for _, v := range values {
		s.segs = append(s.segs, v.(fragjoin.Seg))
	}
	r.join(ctx, s)
}

// FinishGroup implements mapreduce.GroupFinisher: Reduce of fragment i of
// g, its segments read as Segs whose tokens stay where g holds them.
func (r *filterReducer) FinishGroup(ctx *mapreduce.Context, g *spill.Groups, i int) {
	s := scratch(ctx)
	s.segs = spill.AppendGroupValues(s.segs[:0], g, i)
	r.join(ctx, s)
}

// join joins the fragment in s.segs.
func (r *filterReducer) join(ctx *mapreduce.Context, s *filterScratch) {
	s.w.Join(ctx, s.segs, r.params, func(a, b *fragjoin.Seg, c int) {
		mapreduce.EmitPair(ctx, uint32(a.RID), uint32(b.RID),
			result.Overlap{C: int32(c), La: a.StrLen, Lb: b.StrLen})
	})
}

// Cleanup implements mapreduce.Cleanupper: it hands the attempt's scratch
// back to the free list, holding no segment of the task.
func (r *filterReducer) Cleanup(ctx *mapreduce.Context) {
	s, _ := ctx.Local.(*filterScratch)
	if s == nil {
		return
	}
	clear(s.segs[:cap(s.segs)])
	ctx.Local = nil
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if len(scratches.free) < runtime.GOMAXPROCS(0) {
		scratches.free = append(scratches.free, s)
	}
}

// scratch returns the attempt's scratch, taking one from the free list, or
// a new one, on its first fragment.
func scratch(ctx *mapreduce.Context) *filterScratch {
	if s, _ := ctx.Local.(*filterScratch); s != nil {
		return s
	}
	scratches.mu.Lock()
	var s *filterScratch
	if n := len(scratches.free); n > 0 {
		s = scratches.free[n-1]
		scratches.free[n-1] = nil
		scratches.free = scratches.free[:n-1]
	}
	scratches.mu.Unlock()
	if s == nil {
		s = &filterScratch{}
	}
	ctx.Local = s
	return s
}

// DropScratch leaves the filtering reducers' free list to the garbage
// collector, as spill.DropPooled does the shuffle's: the next filtering
// job grows its kernel workspaces afresh. It is safe beside running jobs.
func DropScratch() {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	scratches.free = nil
}

// HeldScratch returns how many scratches the free list holds.
func HeldScratch() int {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	return len(scratches.free)
}
