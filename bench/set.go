package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the machine and toolchain a result came from;
// results with different fingerprints are not compared.
type fingerprint struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func machine() fingerprint {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fingerprint{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: strings.TrimSpace(string(kernel)),
	}
}

// series is one metric of one workload over every run of a set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the interquartile distance of Values as a share of Median.
	// It says something from about minCompareRuns values on.
	Spread float64 `json:"spread"`
}

type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]*series `json:"metrics"`
}

// resultFile is what a full set writes to <out>/result.json.
type resultFile struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Runs        int               `json:"runs"`
	Workloads   []*workloadResult `json:"workloads"`
}

// runSet runs every workload runs times, each in a fresh child process of
// this binary so that it starts from a clean heap and has its own VmHWM, one
// after the other. Run i uses seed+i. It writes <out>/<base>.json.
func runSet(cfg config, runs int, base string) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rf := &resultFile{Fingerprint: machine(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Runs: runs}
	for _, w := range workloads {
		rf.Workloads = append(rf.Workloads, &workloadResult{Name: w.name, Metrics: map[string]*series{}})
	}
	traceFlag := "0"
	if cfg.trace {
		traceFlag = "1"
		base += "-trace"
	}
	var traces []string
	for run := 0; run < runs; run++ {
		traces = traces[:0]
		for i, w := range workloads {
			traceOut := filepath.Join(cfg.out, "trace-"+w.name+".json")
			traces = append(traces, traceOut)
			cmd := exec.Command(self, "-workload", w.name, "-trace", traceFlag,
				"-seed", fmt.Sprint(cfg.seed+int64(run)), "-seconds", fmt.Sprint(cfg.seconds),
				"-out", cfg.out, "-traceout", traceOut)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				os.Stdout.Write(stdout)
				return nil, fmt.Errorf("%s printed no result (%v)", w.name, runErr)
			}
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			wr := rf.Workloads[i]
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				if d, ok := findMetric(perLayer, name); ok && !d.on(w) {
					continue // the 0 a traced run prints for a layer it does not measure
				}
				s := wr.Metrics[name]
				if s == nil {
					s = &series{Unit: m.Unit}
					wr.Metrics[name] = s
				}
				s.Values = append(s.Values, m.Value)
			}
		}
	}
	failed := int64(0)
	for _, wr := range rf.Workloads {
		failed += wr.Failed
		for _, s := range wr.Metrics {
			s.Median, s.Spread = median(s.Values), spread(s.Values)
		}
	}
	if cfg.trace {
		if err := mergeTraces(traces, filepath.Join(cfg.out, "trace.json")); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, base+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d runs, fingerprint %+v)\n", path, runs, rf.Fingerprint)
	if failed > 0 {
		return rf, fmt.Errorf("%d operations failed or returned a wrong result", failed)
	}
	return rf, nil
}

// minCompareRuns is the fewest runs a set needs before it is compared: below
// it the interquartile spread of a metric is not an estimate of anything
// (two runs on this host differ by 6-23 %), so a comparison would call noise
// a regression or a regression noise.
const minCompareRuns = 5

// selfCheck runs the untraced set twice on this commit. The two must agree
// on every end-to-end metric of every workload within the metric's bound,
// and no row may be unresolved: a metric whose own spread exceeds its bound
// cannot be held to that bound.
func selfCheck(cfg config, runs int) error {
	if runs < minCompareRuns {
		return fmt.Errorf("-selfcheck needs -runs of at least %d to know each metric's spread", minCompareRuns)
	}
	cfg.trace = false
	a, err := runSet(cfg, runs, "selfcheck-a")
	if err != nil {
		return err
	}
	b, err := runSet(cfg, runs, "selfcheck-b")
	if err != nil {
		return err
	}
	unresolved, err := compareResults(a, b)
	if err == nil && unresolved > 0 {
		err = fmt.Errorf("%d rows unresolved: their spread exceeds their bound", unresolved)
	}
	return err
}

func compareFiles(pathA, pathB string) error {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&files[i]); err != nil {
			return fmt.Errorf("%s: %v", p, err)
		}
	}
	_, err := compareResults(&files[0], &files[1])
	return err
}

// derivedFrom names the metric another end-to-end metric repeats on a
// workload, or "". A join workload times about ten calls: no percentile
// above the median has ten samples beyond it, so op_tail_ms repeats
// op_p50_ms, and ops_per_s is the reciprocal of the same calls' mean. The
// driver wants every metric from every workload, so the run reports them;
// a comparison judges the measurement once.
func derivedFrom(w workload, metric string) string {
	if w.kind == kindJoin && (metric == "op_tail_ms" || metric == "ops_per_s") {
		return "op_p50_ms"
	}
	return ""
}

// compareResults judges b against a: one row per workload and end-to-end
// metric. A row is flagged when b's median is worse than a's by more than
// the metric's bound, and reads "unresolved" when either side's own spread
// exceeds the bound, since the two medians then cannot be told apart. A
// metric that repeats another on the workload (derivedFrom) is printed and
// not judged. Any rise of a workload's error rate is flagged too. It
// returns the number of unresolved rows, and an error if it refuses the
// files or flags a row.
func compareResults(a, b *resultFile) (unresolved int, err error) {
	if a.Fingerprint != b.Fingerprint {
		return 0, fmt.Errorf("refusing to compare: fingerprints differ (%+v vs %+v)", a.Fingerprint, b.Fingerprint)
	}
	if a.Seed != b.Seed || a.Runs != b.Runs || a.Seconds != b.Seconds || a.Trace || b.Trace {
		return 0, fmt.Errorf("refusing to compare: both files must be untraced sets with the same seed, runs and seconds")
	}
	if a.Runs < minCompareRuns {
		return 0, fmt.Errorf("refusing to compare: the files hold %d runs each; under %d a metric's spread is unknown (make them with -runs %d)", a.Runs, minCompareRuns, minCompareRuns)
	}
	flagged := 0
	fmt.Printf("%-22s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for i, wa := range a.Workloads {
		w, known := findWorkload(wa.Name)
		if !known || i >= len(b.Workloads) || b.Workloads[i].Name != wa.Name {
			return 0, fmt.Errorf("refusing to compare: the files hold different workloads")
		}
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			sa, sb := wa.Metrics[d.name], wb.Metrics[d.name]
			if sa == nil || sb == nil || sa.Median == 0 || len(sa.Values) != a.Runs || len(sb.Values) != b.Runs {
				return 0, fmt.Errorf("%s: %s is missing, zero or short of a value per run", wa.Name, d.name)
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if d.higher {
				worse = -worse
			}
			verdict := "ok"
			switch from := derivedFrom(w, d.name); {
			case from != "":
				verdict = "repeats " + from
			case sa.Spread > d.bound || sb.Spread > d.bound:
				verdict = fmt.Sprintf("unresolved (spread A %.3f, B %.3f)", sa.Spread, sb.Spread)
				unresolved++
			case worse > d.bound:
				verdict = "REGRESSION"
				flagged++
			}
			fmt.Printf("%-22s %-16s %14.6g %14.6g %+8.3f %6.2f  %s\n", wa.Name, d.name, sa.Median, sb.Median, worse, d.bound, verdict)
		}
		ea, eb := float64(wa.Failed)/float64(max(wa.Attempted, 1)), float64(wb.Failed)/float64(max(wb.Attempted, 1))
		verdict := "ok"
		if eb > ea {
			verdict = "REGRESSION"
			flagged++
		}
		fmt.Printf("%-22s %-16s %14.6g %14.6g %8s %6s  %s\n", wa.Name, "error_rate", ea, eb, "", "0", verdict)
	}
	if flagged > 0 {
		return unresolved, fmt.Errorf("%d rows beyond their bound, %d unresolved", flagged, unresolved)
	}
	fmt.Printf("no row beyond its bound, %d unresolved\n", unresolved)
	return unresolved, nil
}
