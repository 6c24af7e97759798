package mapreduce

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/spill"
)

// Pipeline chains MapReduce jobs, feeding each job's output into the next
// and accumulating per-job metrics — the shape of every algorithm in this
// repository (ordering job → filter job → verification job).
type Pipeline struct {
	// Name labels the pipeline in reports.
	Name string
	// Cluster is the shared cost model for all stages; nil means default.
	Cluster *Cluster
	// Parallelism is inherited by every stage that leaves its
	// Config.Parallelism at zero; see Config.Parallelism for the semantics.
	Parallelism int
	// MemoryBudgetBytes is inherited by every stage that leaves its
	// Config.MemoryBudgetBytes at zero; see Config.MemoryBudgetBytes. This
	// is how one Options.MemoryBudget reaches every job of an algorithm.
	MemoryBudgetBytes int64
	// Env is the execution environment every stage runs in.
	Env

	stages []stageResult
	store  *checkpoint.Store // opened on the first checkpointed stage
	ckpt   CheckpointStats
}

// Env is the execution environment of a pipeline: the values the public
// layer resolves once per join (fsjoin.Options.env) and every algorithm
// forwards untouched from its options to its Pipeline. A new engine-wide
// setting is a field here and nowhere in the algorithm packages.
type Env struct {
	// Context, when non-nil, cancels the pipeline at the next task
	// boundary with the context's error.
	Context context.Context
	// Fault is the retry, skip-mode and (for tests) fault injection policy
	// of every stage; see FaultPolicy. This is how a chaos schedule reaches
	// every job of a multi-stage algorithm.
	Fault FaultPolicy
	// SpillDir is the parent directory for spill files; see
	// Config.SpillDir.
	SpillDir string
	// CheckpointDir, when non-empty, makes the pipeline durable: each
	// completed stage's output, counters and metrics are atomically
	// persisted there, and a later run whose stage fingerprint (pipeline
	// name + CheckpointSalt + stage position + job name + reduce-task
	// count + full input content) matches replays the stage from disk
	// byte-identically instead of re-executing it. Stale or corrupt
	// checkpoints are discarded and recomputed, never trusted. A stage
	// whose input or output holds a value with no spill codec fails with
	// spill.ErrNoCodec.
	CheckpointDir string
	// CheckpointSalt folds the caller's configuration into every stage
	// fingerprint, so one directory reused under different algorithm
	// options recomputes instead of replaying mismatched state.
	CheckpointSalt string

	viaRun bool // tests: Feed and Chain as the Run and Run(IdentityMapper) they replace
}

// inherit makes e the stage's environment. No stage of any pipeline sets
// these Config fields itself, so there is nothing to merge.
func (e Env) inherit(cfg *Config) {
	cfg.Context, cfg.Fault, cfg.SpillDir, cfg.CheckpointDir = e.Context, e.Fault, e.SpillDir, e.CheckpointDir
}

// CheckpointStats reports a pipeline's checkpoint activity. Every stage
// that runs with a checkpoint directory is either a hit or a miss; Corrupt
// additionally counts the subset of misses caused by a checksum-failing or
// undecodable file (a stale fingerprint — ordinary configuration or input
// drift — is a plain miss).
type CheckpointStats struct {
	// Hits is the number of stages replayed from disk.
	Hits int64
	// Misses is the number of stages executed and persisted.
	Misses int64
	// Corrupt is the number of discarded corrupt checkpoint files.
	Corrupt int64
}

type stageResult struct {
	metrics  Metrics
	counters map[string]int64
}

// NewPipeline returns a pipeline with the given name and cluster model.
func NewPipeline(name string, cluster *Cluster) *Pipeline {
	return &Pipeline{Name: name, Cluster: cluster}
}

// Run executes one stage, recording its metrics. The stage inherits the
// pipeline's cluster, parallelism and memory budget unless cfg already set
// them, and always runs in the pipeline's Env.
func (p *Pipeline) Run(cfg Config, input []KV, mapper Mapper, reducer Reducer) (*Result, error) {
	return p.run(cfg, jobInput{kvs: input}, mapper, reducer, false)
}

// Feed is Run for a stage whose output only Chain, or a typed reader such
// as EachU32, reads: it stays in the columns its tasks committed, and
// Result.Output is nil. The output has one reader: the first Chain or
// EachU32 of the result consumes it, and a second is an error.
func (p *Pipeline) Feed(cfg Config, input []KV, mapper Mapper, reducer Reducer) (*Result, error) {
	return p.run(cfg, jobInput{kvs: input}, mapper, reducer, !p.viaRun)
}

// Chain runs cfg over the output of prev, a Feed result, as Run(cfg, output,
// IdentityMapper, reducer) would, with no []KV: the map tasks copy records
// column to column into their sinks (DESIGN.md §2). Chain consumes prev,
// whether the job succeeds or fails: once its map tasks have ended — or
// the stage was replayed from a checkpoint, or failed before it ran —
// prev's columns go back to the shuffle's pools, for this job's reduce
// phase and later jobs to grow into, and a later Chain or EachU32 of prev
// is an error naming prev's job. A prev Chain refuses outright (a Run
// result, no reducer) is left as it was.
func (p *Pipeline) Chain(cfg Config, prev *Result, reducer Reducer) (*Result, error) {
	if p.viaRun {
		return p.Run(cfg, prev.Output, IdentityMapper, reducer)
	}
	if prev.chain == nil || reducer == nil || prev.chain.len() > math.MaxInt32 {
		return nil, fmt.Errorf("pipeline %s: job %q needs a fed stage of at most %d records, and a reducer", p.Name, cfg.Name, math.MaxInt32)
	}
	if err := prev.consume(); err != nil {
		return nil, fmt.Errorf("pipeline %s: job %q: %w", p.Name, cfg.Name, err)
	}
	// runJob releases the input as soon as the map phase ends; this covers
	// a replayed stage and a job refused before it ran.
	defer prev.chain.release()
	return p.run(cfg, jobInput{chain: prev.chain}, IdentityMapper, reducer, false)
}

// run is one stage of any kind, replayed or persisted in a checkpoint dir.
func (p *Pipeline) run(cfg Config, in jobInput, mapper Mapper, reducer Reducer, feed bool) (*Result, error) {
	if cfg.Cluster == nil {
		cfg.Cluster = p.Cluster
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = p.Parallelism
	}
	if cfg.MemoryBudgetBytes == 0 {
		cfg.MemoryBudgetBytes = p.MemoryBudgetBytes
	}
	p.inherit(&cfg)
	stage := len(p.stages)
	var fp string
	if cfg.CheckpointDir != "" {
		var err error
		if p.store == nil {
			if p.store, err = checkpoint.Open(cfg.CheckpointDir); err != nil {
				return nil, fmt.Errorf("pipeline %s: %w", p.Name, err)
			}
		}
		if fp, err = p.stageFingerprint(stage, cfg, in); err != nil {
			return nil, fmt.Errorf("pipeline %s: job %q: %w", p.Name, cfg.Name, err)
		}
		if res := p.replay(stage, cfg, fp, feed); res != nil {
			p.stages = append(p.stages, stageResult{metrics: res.Metrics, counters: res.Counters.Snapshot()})
			return res, nil
		}
	}
	res, err := run(cfg, in, mapper, reducer, feed)
	if err != nil {
		return nil, fmt.Errorf("pipeline %s: %w", p.Name, err)
	}
	if cfg.CheckpointDir != "" {
		if err := p.save(stage, cfg, fp, res); err != nil {
			return nil, fmt.Errorf("pipeline %s: job %q: %w", p.Name, cfg.Name, err)
		}
	}
	p.stages = append(p.stages, stageResult{metrics: res.Metrics, counters: res.Counters.Snapshot()})
	return res, nil
}

// stageFingerprint derives the stage's checkpoint key. It covers
// everything a replay must agree on: the format epoch, pipeline identity,
// caller configuration salt, stage position, job name, resolved
// reduce-task count (partitioning differs with it) and the stage's full
// input content in spill encoding (a chained stage's read out of the
// columns). An input value with no codec fails it with spill.ErrNoCodec.
func (p *Pipeline) stageFingerprint(stage int, cfg Config, in jobInput) (string, error) {
	f := checkpoint.NewFingerprint()
	f.Str("fsjoin/checkpoint/v1")
	f.Str(p.Name)
	f.Str(p.CheckpointSalt)
	f.I64(int64(stage))
	f.Str(cfg.Name)
	f.I64(int64(cfg.resolvedReduceTasks()))
	f.I64(int64(in.len()))
	in.each(f.KV)
	return f.Hex(), f.Err()
}

// replay loads a fingerprint-matched checkpoint for the stage, rebuilding
// the stage result the original execution produced (a fed stage's in
// columns). A miss — including a discarded stale or corrupt file — returns
// nil and the stage runs.
func (p *Pipeline) replay(stage int, cfg Config, fp string, feed bool) *Result {
	snap, status := p.store.Load(stage, cfg.Name, fp)
	res := new(Result)
	longKey := func(r checkpoint.Record) bool { return spill.CheckKey(r.Key) != nil }
	if status == checkpoint.Hit && (json.Unmarshal(snap.Manifest.Metrics, &res.Metrics) != nil || slices.ContainsFunc(snap.Records, longKey)) {
		// The checksum passed, so this is a writer/reader version skew the
		// format bump should have caught, or a file no stage wrote: a key
		// longer than Emit takes. Recompute rather than trust it.
		status = checkpoint.Corrupt
	}
	switch status {
	case checkpoint.Corrupt:
		p.ckpt.Corrupt++
		fallthrough
	case checkpoint.Miss, checkpoint.Stale:
		p.ckpt.Misses++
		return nil
	}
	res.Counters = RestoreCounters(snap.Manifest.Counters)
	if feed {
		out := new(spill.Records)
		var sz spill.Sizer
		for _, r := range snap.Records {
			out.Append(r.Key, r.Value, recordBytes(r.Key, sz.Size(r.Value)))
		}
		res.chain = newChainInput([]*spill.Records{out})
	} else {
		res.Output = make([]KV, len(snap.Records))
		for i, r := range snap.Records {
			res.Output[i] = KV{Key: r.Key, Value: r.Value}
		}
	}
	p.ckpt.Hits++
	return res
}

// save persists one completed stage. Any failure — an output value with no
// spill codec included — aborts, because the caller asked for a guarantee
// the engine cannot give.
func (p *Pipeline) save(stage int, cfg Config, fp string, res *Result) error {
	metrics, err := json.Marshal(res.Metrics)
	if err != nil {
		return err
	}
	out := jobInput{kvs: res.Output, chain: res.chain}
	recs := make([]checkpoint.Record, 0, out.len())
	out.each(func(key string, v any) { recs = append(recs, checkpoint.Record{Key: key, Value: v}) })
	return p.store.Save(checkpoint.Manifest{
		Pipeline:    p.Name,
		Stage:       stage,
		Job:         cfg.Name,
		Fingerprint: fp,
		Counters:    res.Counters.Snapshot(),
		Metrics:     metrics,
	}, recs)
}

// CheckpointStats reports the pipeline's checkpoint activity so far.
func (p *Pipeline) CheckpointStats() CheckpointStats { return p.ckpt }

// Stages returns the metrics of every executed stage in order.
func (p *Pipeline) Stages() []Metrics {
	out := make([]Metrics, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.metrics
	}
	return out
}

// StageTime returns the simulated time of the named stage (0 if absent).
func (p *Pipeline) StageTime(name string) time.Duration {
	for _, s := range p.stages {
		if s.metrics.Job == name {
			return s.metrics.SimulatedTotalTime
		}
	}
	return 0
}

// TotalSimulatedTime sums the simulated makespans of all stages — the
// pipeline's modelled end-to-end cluster time.
func (p *Pipeline) TotalSimulatedTime() time.Duration {
	var t time.Duration
	for _, s := range p.stages {
		t += s.metrics.SimulatedTotalTime
	}
	return t
}

// TotalShuffleBytes sums shuffle volume over all stages.
func (p *Pipeline) TotalShuffleBytes() int64 {
	var b int64
	for _, s := range p.stages {
		b += s.metrics.ShuffleBytes
	}
	return b
}

// TotalShuffleRecords sums shuffled record counts over all stages.
func (p *Pipeline) TotalShuffleRecords() int64 {
	var n int64
	for _, s := range p.stages {
		n += s.metrics.ShuffleRecords
	}
	return n
}

// Counter sums the named user counter over all stages.
func (p *Pipeline) Counter(name string) int64 {
	var n int64
	for _, s := range p.stages {
		n += s.counters[name]
	}
	return n
}

// MaxCounter returns the largest value the named counter took in any
// stage — the right aggregation for high-water marks such as
// "shuffle.peak.bytes", which summing would overstate.
func (p *Pipeline) MaxCounter(name string) int64 {
	var max int64
	for _, s := range p.stages {
		if v := s.counters[name]; v > max {
			max = v
		}
	}
	return max
}

// MaxLoadImbalance returns the worst reduce-phase load imbalance across
// stages (see Metrics.LoadImbalance).
func (p *Pipeline) MaxLoadImbalance() float64 {
	var worst float64
	for _, s := range p.stages {
		m := s.metrics
		if li := m.LoadImbalance(); li > worst {
			worst = li
		}
	}
	return worst
}
