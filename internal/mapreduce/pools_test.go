package mapreduce_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/testutil"
)

// TestPipelinesShareChunkPools: every job in the process grows its
// partitions out of the same chunk pools and hands them back there. Two
// pipelines at parallelism 4 — FS-Join self-join and V-SMART R-S join, in
// memory and under a 1 KiB budget — run side by side three times over,
// each taking chunks the other gave back; every run's pairs, stage
// metrics and counters must be those of the same pipeline run alone.
func TestPipelinesShareChunkPools(t *testing.T) {
	runSideBySide(t, func(site chainSite) bool { return site.name == "fs" && !site.rs || site.name == "vsmart" && site.rs })
}

// TestPipelinesShareTailChunks: the word chunks of the segments' tailed
// columns are shared alike. FS-Join's self-join and its R-S join run side
// by side at parallelism 4, in memory and under a 1 KiB budget, three
// times over, each filtering job's partitions and groups growing into the
// tail chunks the other released; a chunk in two columns at once, or read
// after its release, is a wrong pair, metric or counter, or under -race a
// race report.
func TestPipelinesShareTailChunks(t *testing.T) {
	runSideBySide(t, func(site chainSite) bool { return site.name == "fs" })
}

// runSideBySide runs the chain sites keep selects alone, then side by side
// three times over, in memory and under a 1 KiB budget, at parallelism 4:
// every run's pairs, stage metrics and counters must be those of the same
// pipeline run alone.
func runSideBySide(t *testing.T, keep func(chainSite) bool) {
	r := testutil.RandomCollection(80, 40, 10, 1)
	s := testutil.RandomCollection(60, 40, 10, 2)
	type outcome struct {
		pairs    []result.Pair
		stages   []mapreduce.Metrics
		counters any
	}
	var sites []chainSite
	for _, site := range chainSites {
		if keep(site) {
			sites = append(sites, site)
		}
	}
	for _, budget := range []int64{-1, 1024} {
		run := func(t *testing.T, site chainSite) (outcome, error) {
			other := s
			if !site.rs {
				other = nil
			}
			pairs, p, err := site.run(r, other, 4, budget, mapreduce.Env{SpillDir: t.TempDir()})
			if err != nil {
				return outcome{}, err
			}
			o := outcome{pairs: pairs, counters: mapreduce.StageCounters(p)}
			for _, m := range p.Stages() {
				o.stages = append(o.stages, untimed(m))
			}
			return o, nil
		}
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			want := make([]outcome, len(sites))
			for i, site := range sites {
				var err error
				if want[i], err = run(t, site); err != nil {
					t.Fatal(err)
				}
				if len(want[i].pairs) == 0 {
					t.Fatalf("%s joined no pairs", site.name)
				}
			}
			var wg sync.WaitGroup
			for i, site := range sites {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						got, err := run(t, site)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, want[i]) {
							t.Errorf("%s, round %d beside another pipeline: pairs, metrics or counters differ from a run alone", site.name, round)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
