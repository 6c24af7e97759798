package mapreduce

import (
	"sort"
	"time"
)

// Cluster models the distributed testbed the paper ran on: a set of worker
// nodes each offering a fixed number of task slots, a network over which the
// shuffle travels, and local disks absorbing map-side spills. The engine
// runs every task for real, measures its CPU time and byte counts, and then
// uses this model to compute the makespan the same job would have on the
// cluster.
//
// The default values approximate the paper's setup: 10 workers, 3 slots per
// worker ("we set the number of reduce tasks to be three times the number of
// nodes"), gigabit-class network shared per node, and a multi-second Hadoop
// per-task startup overhead.
type Cluster struct {
	// Nodes is the number of worker nodes (the paper uses 5/10/15).
	Nodes int
	// SlotsPerNode is the number of concurrent map or reduce tasks a node
	// runs (3 in the paper).
	SlotsPerNode int
	// ShuffleBytesPerSec is the per-node network drain rate during shuffle.
	ShuffleBytesPerSec float64
	// SpillBytesPerSec is the per-node disk rate used for map-side sort
	// spills; large map outputs pay this twice (write + read back).
	SpillBytesPerSec float64
	// SpillBufferBytes is the in-memory sort buffer per map task; only map
	// output beyond this spills to disk.
	SpillBufferBytes int64
	// TaskOverhead is the fixed per-task scheduling/JVM-startup latency.
	TaskOverhead time.Duration
	// CPUScale multiplies measured local CPU time to account for the speed
	// difference between the local machine and one cluster core. 1.0 means
	// "cluster core as fast as local core".
	CPUScale float64
	// DataScaleFactor multiplies byte volumes before rate division: the
	// synthetic datasets are miniatures of the paper's (≈1000× smaller), so
	// each simulated byte stands for DataScaleFactor real bytes when
	// computing shuffle and spill transfer times. This calibrates the
	// simulator to the shuffle-bound regime the paper's Hadoop cluster
	// operated in.
	DataScaleFactor float64
	// ReducerMemoryBytes is the memory available to one reduce task for
	// materialising a key group. A group larger than this (after data
	// scaling) is charged external-memory passes on the local disk — the
	// paper's explanation for why whole-fragment reducers (FS-Join-V, or
	// badly balanced pivots) fall behind: "the spilling procedure is
	// invoked multiple times ... each reduce node will incur on high time
	// latency" (Section VI-F).
	ReducerMemoryBytes int64
}

// DefaultCluster returns the paper's 10-worker configuration.
func DefaultCluster() *Cluster {
	return &Cluster{
		Nodes:              10,
		SlotsPerNode:       3,
		ShuffleBytesPerSec: 40e6,
		SpillBytesPerSec:   60e6,
		SpillBufferBytes:   64 << 10, // scaled with DataScaleFactor
		TaskOverhead:       1500 * time.Millisecond,
		CPUScale:           20,
		DataScaleFactor:    1000,
		ReducerMemoryBytes: 256 << 20,
	}
}

// WithNodes returns a copy of c with a different node count.
func (c *Cluster) WithNodes(n int) *Cluster {
	out := *c
	out.Nodes = n
	return &out
}

// Slots returns the total number of concurrent task slots.
func (c *Cluster) Slots() int {
	n := c.Nodes * c.SlotsPerNode
	if n < 1 {
		return 1
	}
	return n
}

// makespan schedules task durations onto the cluster's slots using LPT
// (longest processing time first), the classic 4/3-approximation that
// mirrors Hadoop's greedy scheduler behaviour, and returns the finish time.
func (c *Cluster) makespan(durations []time.Duration) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	slots := c.Slots()
	sorted := make([]time.Duration, len(durations))
	copy(sorted, durations)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	loads := make([]time.Duration, slots)
	for _, d := range sorted {
		// Place on the least-loaded slot.
		min := 0
		for i := 1; i < slots; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += d
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// dataScale returns the byte-volume multiplier (≥ 1).
func (c *Cluster) dataScale() float64 {
	if c.DataScaleFactor < 1 {
		return 1
	}
	return c.DataScaleFactor
}

// spillTime charges disk time for map output beyond the per-task sort
// buffer: spilled bytes are written and read back once.
func (c *Cluster) spillTime(mapOutputBytes int64, mapTasks int) time.Duration {
	if mapOutputBytes <= 0 || c.SpillBytesPerSec <= 0 || mapTasks <= 0 {
		return 0
	}
	buffered := c.SpillBufferBytes * int64(mapTasks)
	spilled := mapOutputBytes - buffered
	if spilled <= 0 {
		return 0
	}
	sec := 2 * float64(spilled) * c.dataScale() / (c.SpillBytesPerSec * float64(c.Nodes))
	return time.Duration(sec * float64(time.Second))
}

// measuredSpillTime charges disk time for bytes the out-of-core shuffle
// actually spilled under a memory budget (Metrics.SpillBytes): each byte
// is written once into a map task's spill file and read back once by a
// reduce task's fetch. This complements spillTime, which models the buffer Hadoop
// would have had; this term reflects the buffer this engine really had.
func (c *Cluster) measuredSpillTime(spilledBytes int64) time.Duration {
	if spilledBytes <= 0 || c.SpillBytesPerSec <= 0 {
		return 0
	}
	sec := 2 * float64(spilledBytes) * c.dataScale() / (c.SpillBytesPerSec * float64(c.Nodes))
	return time.Duration(sec * float64(time.Second))
}

// mergeFactor is the external-merge fan-in used to estimate how many disk
// passes an oversized reduce group needs (Hadoop's io.sort.factor regime).
const mergeFactor = 10

// groupSpillTime charges external-memory merge passes for one reduce-side
// key group: a group whose (scaled) bytes exceed the reducer's memory is
// written and read back once per merge pass on the task's local disk —
// ⌈log_mf(group/memory)⌉ passes, each touching the whole group.
func (c *Cluster) groupSpillTime(groupBytes int64) time.Duration {
	if c.ReducerMemoryBytes <= 0 || c.SpillBytesPerSec <= 0 {
		return 0
	}
	scaled := float64(groupBytes) * c.dataScale()
	ratio := scaled / float64(c.ReducerMemoryBytes)
	if ratio <= 1 {
		return 0
	}
	passes := 0
	for r := ratio; r > 1; r /= mergeFactor {
		passes++
	}
	sec := float64(passes) * 2 * scaled / c.SpillBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// fetchTime is the time one reduce task needs to pull its shuffle input
// over its node's network share (the per-node rate divided across the
// node's concurrent task slots). Skewed reducers therefore stall the phase,
// which is the load-imbalance effect Even-TF pivots exist to avoid.
func (c *Cluster) fetchTime(taskBytes int64) time.Duration {
	if taskBytes <= 0 || c.ShuffleBytesPerSec <= 0 {
		return 0
	}
	slots := c.SlotsPerNode
	if slots < 1 {
		slots = 1
	}
	rate := c.ShuffleBytesPerSec / float64(slots)
	sec := float64(taskBytes) * c.dataScale() / rate
	return time.Duration(sec * float64(time.Second))
}

// scaleCPU converts measured local CPU time into modelled cluster-core time.
func (c *Cluster) scaleCPU(d time.Duration) time.Duration {
	if c.CPUScale == 0 || c.CPUScale == 1.0 {
		return d
	}
	return time.Duration(float64(d) * c.CPUScale)
}
