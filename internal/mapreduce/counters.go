package mapreduce

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counters is a thread-safe named counter set, mirroring Hadoop job
// counters. Tasks increment local counters which the engine merges into the
// job result.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// RestoreCounters rebuilds a counter set from a Snapshot copy — how a
// checkpoint replay hands a stage back the exact counters its original
// execution produced.
func RestoreCounters(snap map[string]int64) *Counters {
	c := &Counters{m: make(map[string]int64, len(snap))}
	for k, v := range snap {
		c.m[k] = v
	}
	return c
}

// Spill counters (DESIGN.md §8). Recorded only when a memory budget is
// active, from winning attempts only, so they are deterministic at any
// parallelism and under any chaos schedule for a fixed budget.
const (
	// CounterSpillRuns counts the spills of map-side shuffle buffers that
	// exceeded the memory budget: each appends one segment per non-empty
	// partition to its map task's one spill file.
	CounterSpillRuns = "spill.runs"
	// CounterSpillBytes totals the accounted bytes those spills carried.
	CounterSpillBytes = "spill.bytes"
	// CounterSpillMergeWays is the widest fan-in any reduce fetch needed:
	// the spill-file segments holding its partition, plus one for a
	// non-empty in-memory tail (max-valued, via Counters.Max).
	CounterSpillMergeWays = "spill.merge.ways"
	// CounterShufflePeak is the largest in-memory shuffle buffer any map
	// task held (max-valued, via Counters.Max).
	CounterShufflePeak = "shuffle.peak.bytes"
)

// Inc adds delta to the named counter.
func (c *Counters) Inc(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Max raises the named counter to v if v is larger. Because max is
// commutative, concurrent tasks can record high-water marks and still
// produce parallelism-independent counter values.
func (c *Counters) Max(name string, v int64) {
	c.mu.Lock()
	if v > c.m[name] {
		c.m[name] = v
	}
	c.mu.Unlock()
}

// Get returns the current value of the named counter (0 when absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Merge folds other into c.
func (c *Counters) Merge(other *Counters) {
	other.mu.Lock()
	snapshot := make(map[string]int64, len(other.m))
	for k, v := range other.m {
		snapshot[k] = v
	}
	other.mu.Unlock()
	c.mu.Lock()
	for k, v := range snapshot {
		c.m[k] += v
	}
	c.mu.Unlock()
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// String renders counters sorted by name, one per line.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d\n", k, snap[k])
	}
	return b.String()
}

// mergeTaskCounters folds one task's counter snapshot into the job
// counters, routing the engine's max-valued counters through Max.
func mergeTaskCounters(dst *Counters, snap map[string]int64) {
	for k, v := range snap {
		switch k {
		case CounterSpillMergeWays, CounterShufflePeak:
			dst.Max(k, v)
		default:
			dst.Inc(k, v)
		}
	}
}
