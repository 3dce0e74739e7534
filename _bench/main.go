// Command buffalo-bench is the repository's benchmark: it runs one workload
// of the Buffalo reproduction (train-seq, train-dp or serve-zipf) against
// the program's public entry points, checks the program's outputs, and
// prints every metric by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the same workload runs with spans around every call
// into the program, then times each layer's entry points on the workload's
// own batches and the GEMM kernels at the workload's shapes; it reports the
// per-layer metrics and writes the spans to .bench_build/spans/.
//
// Without --workload every workload runs, each in its own process.
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its driver, in run order.
var workloads = []struct {
	name string
	run  func(*runCtx) error
}{
	{"train-seq", runTrainSeq},
	{"train-dp", runTrainDP},
	{"serve-zipf", runServeZipf},
}

// runCtx is one run's settings and the figures it accumulates.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tr       *tracer // nil unless trace

	host      hostRecord
	attempted int64
	failed    int64
	problems  []string
	vals      map[string]float64
	stderr    io.Writer
}

// fail records a correctness violation; the run goes on so every check
// reports, and the result says correct=false.
func (rc *runCtx) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rc.problems = append(rc.problems, msg)
	fmt.Fprintf(rc.stderr, "%s: CHECK FAILED: %s\n", rc.workload, msg)
}

// logf prints a progress line on standard error.
func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.stderr, "%s: %s\n", rc.workload, fmt.Sprintf(format, args...))
}

// set records one metric value.
func (rc *runCtx) set(name string, v float64) { rc.vals[name] = v }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("buffalo-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (train-seq, train-dp, serve-zipf); empty runs all, each in its own process")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 12, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	faultProbes := fs.Int("fault-probe", 0, "reproduce the train-dp loader fault this many times and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *faultProbes > 0 {
		if err := runFaultProbes(*faultProbes, stdout); err != nil {
			fmt.Fprintf(stderr, "buffalo-bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "buffalo-bench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *workload == "" {
		return runAll(args, stdout, stderr)
	}
	var drive func(*runCtx) error
	for _, w := range workloads {
		if w.name == *workload {
			drive = w.run
		}
	}
	if drive == nil {
		fmt.Fprintf(stderr, "buffalo-bench: unknown workload %q\n", *workload)
		return 2
	}
	// Run from the repository root (run.sh does), where the benchmark's
	// definition names the metrics each kind of run reports.
	endToEnd, perLayer, err := loadMetricDefs("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "buffalo-bench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	// Pin the scheduler to every CPU this process may use, whatever the
	// environment says, so runs on one host are comparable.
	runtime.GOMAXPROCS(runtime.NumCPU())
	rc := &runCtx{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		host:    newHostRecord(),
		vals:    map[string]float64{},
		stderr:  stderr,
	}
	if rc.trace {
		rc.tr = newTracer()
		// A layer the workload does not run reads 0.
		for _, d := range perLayer {
			rc.set(d.name, 0)
		}
	}
	if err := drive(rc); err != nil {
		fmt.Fprintf(stderr, "buffalo-bench: %s: %v\n", rc.workload, err)
		return 1
	}
	if rc.trace {
		rc.set("traced.spans", float64(rc.tr.len()))
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
		if err := rc.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "buffalo-bench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
	}
	res, err := buildResult(len(rc.problems) == 0, rc.attempted, rc.failed, defs, rc.vals)
	if err != nil {
		fmt.Fprintf(stderr, "buffalo-bench: %s: %v\n", rc.workload, err)
		return 1
	}
	if err := writeReport(stdout, rc.workload, rc.host, defs, res); err != nil {
		fmt.Fprintf(stderr, "buffalo-bench: %v\n", err)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of this binary, one after
// the other, passing the remaining flags through.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "buffalo-bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "buffalo-bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
