// Command bench is the repository's benchmark: six named workloads, six
// end-to-end metrics measured through the public fsjoin API, and a traced
// run that replays the same inputs layer by layer. README.md explains the
// workloads, the metrics and how the layers map onto them.
//
//	go run . [-seed N] [-seconds S] [-runs N]      every workload, untraced
//	go run . -trace 1                              every workload, per layer
//	go run . -workload NAME -trace 0|1             one workload, in this process
//	go run . -selfcheck                            two untraced sets must agree
//	go run . -compare A.json B.json                judge B against A
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload, in this process, and print its JSON result last")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs and operation streams")
		seconds   = flag.Float64("seconds", 15, "length of each workload's measured loop")
		trace     = flag.Int("trace", 0, "1 replays the inputs layer by layer and reports the per-layer metrics")
		runs      = flag.Int("runs", 0, "how many times the full set runs, run i with seed+i (default 1; -selfcheck 5, the fewest -compare accepts)")
		out       = flag.String("out", defaultOut(), "directory for result.json, trace.json and scratch files")
		traceOut  = flag.String("traceout", "", "trace file of a -workload run (default <out>/trace.json)")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and fail if the two disagree beyond a bound")
		compare   = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()
	// The harness never uses more than two cores, so that numbers from a
	// larger host stay comparable with the two-core sizing host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	cfg := config{seed: *seed, seconds: *seconds, scale: 1, trace: *trace == 1, out: *out, minReps: 3}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare A.json B.json")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(cfg, cmp.Or(*runs, minCompareRuns))
	case *name != "":
		if *traceOut == "" {
			*traceOut = *out + "/trace.json"
		}
		err = runOne(*name, cfg, *traceOut)
	default:
		_, err = runSet(cfg, cmp.Or(*runs, 1), "result")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// config is what every mode needs to know about a run.
type config struct {
	seed    int64
	seconds float64
	// scale multiplies every input size. It is 1 in every run of the
	// command; only bench_test.go shrinks the inputs.
	scale float64
	trace bool
	out   string
	// minReps is the least number of timed calls a join workload makes
	// however short the run; the tests lower it to 1.
	minReps int
}

// defaultOut puts outputs under bench/out whether the command runs from the
// repository root or from bench/.
func defaultOut() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

// runOne measures a single workload in this process. Its last line of
// standard output is the JSON result; a wrong or failed operation makes the
// exit status non-zero after the result is printed.
func runOne(name string, cfg config, traceOut string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := workDir(cfg.out)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var res *runResult
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		res, err = runTraced(w, cfg, tmp, traceOut)
	} else {
		res, err = runEndToEnd(w, cfg, tmp)
	}
	if err != nil {
		return err
	}
	if err := res.print(w, defs); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or returned a wrong answer", name, res.Failed, res.Attempted)
	}
	return nil
}
