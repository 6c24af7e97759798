package mapreduce

import (
	"encoding/binary"
	"strings"

	"fsjoin/internal/spill"
)

// ChainsViaRun makes every pipeline run in env execute Feed as Run and
// Chain as Run of IdentityMapper over the previous Output: the reference a
// chain is held to.
func ChainsViaRun(env *Env) { env.viaRun = true }

// StageCounters returns each stage's counter snapshot, in stage order.
func StageCounters(p *Pipeline) []map[string]int64 {
	out := make([]map[string]int64, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.counters
	}
	return out
}

// NewMapContext returns the context of a map task that routes what it
// emits into reducers partitions, as a job with a reduce phase does.
func NewMapContext(reducers int) *Context {
	return &Context{shuffle: newShuffleSink(nil, reducers, nil, 0, "", nil)}
}

// Emitted returns what ctx has emitted: a reduce task's output, or each
// shuffle partition of a map task's, as a reduce task fetches it — all of
// the records returned for it.
func Emitted(ctx *Context) ([]*spill.Records, error) {
	if ctx.shuffle == nil {
		return []*spill.Records{&ctx.out}, nil
	}
	defer ctx.shuffle.close()
	parts := make([]*spill.Records, ctx.shuffle.reducers)
	for p := range parts {
		parts[p] = new(spill.Records)
		src, _, err := ctx.shuffle.buf.Fetch(p, parts[p], new(spill.Fetcher))
		if err != nil {
			return nil, err
		}
		if src.Recs != nil {
			parts[p] = src.Recs
		}
	}
	return parts, nil
}

// FetchedSources runs the map phase of Run(cfg, input, mapper, reducer) and
// fetches every reduce task's partition of each map task as the reduce task
// would. It reports, per reduce task, whether some non-empty partition was
// handed over where it lies (resident) and whether some was decoded from
// a spill file into the task's own records (merged).
func FetchedSources(cfg Config, input []KV, mapper Mapper, reducer Reducer) (resident, merged []bool, err error) {
	env, err := newJobEnv(cfg, jobInput{kvs: input}, mapper, reducer, false)
	if err != nil {
		return nil, nil, err
	}
	c := newCommits(env)
	defer c.close()
	if err := env.mapPhase(c); err != nil {
		return nil, nil, err
	}
	resident, merged = make([]bool, env.reduceTasks), make([]bool, env.reduceTasks)
	for r := range resident {
		var fetched spill.Records
		var f spill.Fetcher
		for _, s := range c.sinks {
			src, _, err := s.buf.Fetch(r, &fetched, &f)
			if err != nil {
				return nil, nil, err
			}
			if src.Hi > src.Lo {
				merged[r] = merged[r] || src.Recs == &fetched
				resident[r] = resident[r] || src.Recs != &fetched
			}
		}
	}
	return resident, merged, nil
}

// unpad returns the key a Partitioner is handed as its integer, for a key
// that does not end in a zero byte.
func unpad(key uint64) string {
	return strings.TrimRight(string(binary.BigEndian.AppendUint64(nil, key)), "\x00")
}
