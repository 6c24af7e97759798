package fsjoin

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurface pins the library's knobs: the exported fields of the
// option and statistics structs, and the FSJOIN_* environment variables the
// non-test code outside bench/ reads. A change that adds or removes a knob
// edits this golden in its own diff.
func TestPublicSurface(t *testing.T) {
	fields := func(v any) []string {
		var out []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			if f.IsExported() {
				out = append(out, f.Name)
			}
		}
		return out
	}
	for _, c := range []struct {
		name string
		got  []string
		want []string
	}{
		{"Options", fields(Options{}), []string{
			"Threshold", "Function", "Algorithm", "VerticalPartitions", "HorizontalPivots",
			"PivotSelection", "JoinMethod", "Nodes", "Seed", "WorkBudget", "Context",
			"LocalParallelism", "Fault", "MemoryBudget", "SpillDir", "CheckpointDir",
		}},
		{"FaultOptions", fields(FaultOptions{}), []string{
			"MaxAttempts", "SkipBadRecords", "MaxSkippedRecords", "OnQuarantine",
		}},
		{"IndexOptions", fields(IndexOptions{}), []string{"Threshold", "Function"}},
		{"ServerOptions", fields(ServerOptions{}), []string{
			"MemoryBudget", "MaxConcurrent", "MaxQueue", "DefaultDeadline", "QueueTimeout",
			"SpillRoot", "CheckpointRoot", "MaintenanceInterval",
		}},
		{"Stats", fields(Stats{}), []string{
			"SimulatedTime", "ShuffleRecords", "ShuffleBytes", "LoadImbalance", "Candidates",
			"BitmapBuilt", "BitmapRejected", "BitmapPassed", "VerifiedCandidates",
			"SpillRuns", "SpillBytes", "ShufflePeakBytes", "RecordsSkipped",
			"CheckpointHits", "CheckpointMisses", "RSCandidates", "RSPairs",
			"QueueWait", "MemoryLease",
		}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s fields:\n got  %q\n want %q", c.name, c.got, c.want)
		}
	}

	getenv := regexp.MustCompile(`os\.Getenv\("(FSJOIN_[A-Z0-9_]*)"\)`)
	var vars []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range getenv.FindAllStringSubmatch(string(src), -1) {
			vars = append(vars, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(vars)
	vars = slices.Compact(vars)
	if want := []string{"FSJOIN_BITMAP", "FSJOIN_MEMORY_BUDGET", "FSJOIN_SPILL_DIR"}; !slices.Equal(vars, want) {
		t.Errorf("FSJOIN_* variables read:\n got  %q\n want %q", vars, want)
	}
}
