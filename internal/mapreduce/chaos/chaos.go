// Package chaos is the harness side of the engine's fault model
// (DESIGN.md §7): it derives reproducible fault schedules from seeds and
// provides the comparison helpers chaos tests use to assert that a run
// under injected faults is byte-identical to the fault-free run.
//
// A Schedule is fully determined by a base seed and an index, so any
// failing schedule reported by a test can be re-run from its seed alone:
//
//	sched := chaos.Schedules(base, n)[i]   // or chaos.At(base, i)
//	res, err := mapreduce.Run(cfg-with-sched.Policy(), ...)
package chaos

import (
	"fmt"
	"time"

	"fsjoin/internal/mapreduce"
)

// Schedule describes one reproducible chaos run: the seeded fault plan
// plus the retry budget it plays out under. Every field is derived deterministically from
// (BaseSeed, Index) by Schedules.
type Schedule struct {
	// Seed drives the fault plan; see mapreduce.PlanConfig.Seed.
	Seed int64
	// Intensity is the plan's TargetRate.
	Intensity float64
	// MaxFailures is the plan's per-task failure cap.
	MaxFailures int
	// MaxDelay bounds injected straggler sleeps.
	MaxDelay time.Duration
	// MaxAttempts is the engine retry budget the schedule runs under.
	MaxAttempts int
}

// Policy converts the schedule into the engine policy that realises it.
func (s Schedule) Policy() mapreduce.FaultPolicy {
	return mapreduce.FaultPolicy{
		MaxAttempts: s.MaxAttempts,
		Injector: mapreduce.NewSeededPlan(mapreduce.PlanConfig{
			Seed:        s.Seed,
			TargetRate:  s.Intensity,
			MaxFailures: s.MaxFailures,
			MaxDelay:    s.MaxDelay,
		}),
	}
}

// At derives the i-th schedule of a base seed. The derivation varies
// intensity, failure depth and straggler length across indices so a
// modest schedule count still covers the policy space: intensity cycles
// through {0.2, 0.35, 0.5, 0.8}, failure depth through {1, 2}, and the
// longest injected delay through {1, 2, 3} ms.
func At(base int64, i int) Schedule {
	return Schedule{
		Seed:        base + int64(i)*1_000_003,
		Intensity:   []float64{0.2, 0.35, 0.5, 0.8}[i%4],
		MaxFailures: 1 + i%2,
		MaxDelay:    time.Duration(1+i%3) * time.Millisecond,
		MaxAttempts: 4,
	}
}

// Schedules derives n schedules from a base seed.
func Schedules(base int64, n int) []Schedule {
	out := make([]Schedule, n)
	for i := range out {
		out[i] = At(base, i)
	}
	return out
}

// DeterministicCounters strips the engine's fault-handling bookkeeping
// ("mapreduce.task.*" retry counts and
// "mapreduce.fault.*" injection counts) from a counter snapshot, leaving
// exactly the counters a fault-free run must reproduce.
func DeterministicCounters(snap map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(snap))
	for k, v := range snap {
		if hasPrefix(k, "mapreduce.task.") || hasPrefix(k, "mapreduce.fault.") {
			continue
		}
		out[k] = v
	}
	return out
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Fingerprint is the deterministic slice of a job's metrics: everything a
// fault schedule must not perturb. Time-derived fields (task times,
// simulated makespans, wall time) are intentionally absent — injected
// delays and retries change them by design.
type Fingerprint struct {
	MapTasks          int
	ReduceTasks       int
	MapInputRecords   int64
	ShuffleRecords    int64
	ShuffleBytes      int64
	ReduceInputGroups int64
	OutputRecords     int64
	OutputBytes       int64
	PerReduceRecords  string
	PerReduceBytes    string
}

// FingerprintOf extracts the deterministic metrics of one job result.
func FingerprintOf(m mapreduce.Metrics) Fingerprint {
	return Fingerprint{
		MapTasks:          m.MapTasks,
		ReduceTasks:       m.ReduceTasks,
		MapInputRecords:   m.MapInputRecords,
		ShuffleRecords:    m.ShuffleRecords,
		ShuffleBytes:      m.ShuffleBytes,
		ReduceInputGroups: m.ReduceInputGroups,
		OutputRecords:     m.OutputRecords,
		OutputBytes:       m.OutputBytes,
		PerReduceRecords:  fmt.Sprint(m.PerReduceRecords),
		PerReduceBytes:    fmt.Sprint(m.PerReduceBytes),
	}
}
