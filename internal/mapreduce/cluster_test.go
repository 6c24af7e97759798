package mapreduce

import (
	"testing"
	"time"
)

func TestMakespanSingleSlot(t *testing.T) {
	cl := &Cluster{Nodes: 1, SlotsPerNode: 1}
	d := cl.makespan([]time.Duration{time.Second, 2 * time.Second, time.Second})
	if d != 4*time.Second {
		t.Fatalf("makespan = %v, want 4s", d)
	}
}

func TestMakespanPerfectSplit(t *testing.T) {
	cl := &Cluster{Nodes: 2, SlotsPerNode: 1}
	d := cl.makespan([]time.Duration{time.Second, time.Second})
	if d != time.Second {
		t.Fatalf("makespan = %v, want 1s", d)
	}
}

func TestMakespanLPTBound(t *testing.T) {
	// LPT is within 4/3 of optimal; with identical tasks it is optimal.
	cl := &Cluster{Nodes: 3, SlotsPerNode: 1}
	tasks := make([]time.Duration, 9)
	for i := range tasks {
		tasks[i] = time.Second
	}
	if d := cl.makespan(tasks); d != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s", d)
	}
}

func TestMakespanEmpty(t *testing.T) {
	cl := DefaultCluster()
	if d := cl.makespan(nil); d != 0 {
		t.Fatalf("empty makespan = %v", d)
	}
}

func TestMakespanDominatedByLongest(t *testing.T) {
	cl := &Cluster{Nodes: 10, SlotsPerNode: 3}
	tasks := []time.Duration{10 * time.Second, time.Second, time.Second}
	if d := cl.makespan(tasks); d != 10*time.Second {
		t.Fatalf("makespan = %v, want 10s (straggler dominates)", d)
	}
}

// TestShuffleTimeScalesWithNodes: one shuffle volume spread over 3 × nodes
// reduce tasks, priced the way applyCostModel prices a job, drains faster
// on more nodes; no bytes cost no transfer time.
func TestShuffleTimeScalesWithNodes(t *testing.T) {
	reduce := func(nodes int, bytes int64) time.Duration {
		tasks := 3 * nodes
		m := &Metrics{
			PerReduceBytes: make([]int64, tasks),
			ReduceTaskTime: make([]time.Duration, tasks),
			GroupSpillTime: make([]time.Duration, tasks),
		}
		for i := range m.PerReduceBytes {
			m.PerReduceBytes[i] = bytes / int64(tasks)
		}
		cl := DefaultCluster().WithNodes(nodes)
		applyCostModel(cl, m, 0, tasks)
		return m.SimulatedReduce - cl.TaskOverhead
	}
	t5, t10 := reduce(5, 1<<20), reduce(10, 1<<20)
	if t10 >= t5 {
		t.Fatalf("shuffle does not speed up with nodes: %v vs %v", t10, t5)
	}
	if d := reduce(10, 0); d != 0 {
		t.Fatalf("zero bytes took %v to shuffle", d)
	}
}

func TestShuffleTimeUsesDataScale(t *testing.T) {
	cl := DefaultCluster()
	cl.DataScaleFactor = 1
	base := cl.fetchTime(1 << 20)
	cl.DataScaleFactor = 1000
	scaled := cl.fetchTime(1 << 20)
	if scaled < 900*base {
		t.Fatalf("data scale not applied: %v vs %v", scaled, base)
	}
}

func TestSpillTimeOnlyBeyondBuffer(t *testing.T) {
	cl := DefaultCluster()
	if d := cl.spillTime(cl.SpillBufferBytes, 1); d != 0 {
		t.Fatalf("buffered output spilled: %v", d)
	}
	if d := cl.spillTime(cl.SpillBufferBytes*10, 1); d <= 0 {
		t.Fatal("large output did not spill")
	}
}

func TestSlotsFloor(t *testing.T) {
	cl := &Cluster{Nodes: 0, SlotsPerNode: 0}
	if cl.Slots() != 1 {
		t.Fatalf("Slots = %d, want 1", cl.Slots())
	}
}

func TestScaleCPU(t *testing.T) {
	cl := &Cluster{CPUScale: 2}
	if d := cl.scaleCPU(time.Second); d != 2*time.Second {
		t.Fatalf("scaleCPU = %v", d)
	}
	cl.CPUScale = 0
	if d := cl.scaleCPU(time.Second); d != time.Second {
		t.Fatalf("zero scale must mean identity, got %v", d)
	}
}

func TestWithNodesCopies(t *testing.T) {
	cl := DefaultCluster()
	cl2 := cl.WithNodes(15)
	if cl.Nodes != 10 || cl2.Nodes != 15 {
		t.Fatal("WithNodes mutated the receiver")
	}
}

func TestSimPhaseIncludesOverhead(t *testing.T) {
	cl := &Cluster{Nodes: 1, SlotsPerNode: 1, TaskOverhead: time.Second, CPUScale: 1}
	d := simPhase(cl, []time.Duration{time.Second, time.Second})
	if d != 4*time.Second { // 2×(1s work + 1s overhead) on one slot
		t.Fatalf("simPhase = %v, want 4s", d)
	}
}
