// Command bench is the repository's benchmark: four closed-loop workloads
// over the serving stack, five end-to-end metrics per workload, and a
// per-layer ledger measured from outside the program (see README.md).
//
//	bench -workload W -seed N -seconds S -trace 0   one end-to-end run
//	bench -workload W -seed N -seconds S -trace 1   one traced run
//	bench [-trace 1]                                every workload, one child process each
//	bench -selfcheck N                              two interleaved sets of N runs, compared
//
// Every run prints `workload/metric value unit` lines and ends with one
// JSON object on the last line of standard output. It exits non-zero when a
// reply differs from the golden model or a validity check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	var (
		name      = flag.String("workload", "", "workload to run in this process; empty runs all, one child process each")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the end-to-end run")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them against the bounds")
		corrupt   = flag.Bool("corrupt-golden", false, "test hook: flip one bit of every expected value, so the run must fail")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *selfcheck < 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-selfcheck N]")
		os.Exit(2)
	}
	switch {
	case *selfcheck > 0:
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds))
	case *name == "":
		os.Exit(runSuite(*seed, *seconds, *trace))
	}
	d := findWorkload(*name)
	if d == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	e := &env{seed: *seed, outDir: outDir(), corrupt: *corrupt}
	rep, err := runWorkload(e, d, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.name, err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// outDir is where trace files and the fleet's durable log go: bench/out of
// the checkout, whether the command runs from its root or from bench/.
func outDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runWorkload runs one workload in this process, so its peak RSS and CPU
// time are that workload's alone.
func runWorkload(e *env, d *workloadDef, seconds int, traced bool, log io.Writer) (*report, error) {
	printProvenance(log, d.name, e.seed, seconds, traced, e.outDir)
	if traced {
		return runTraced(e, d, seconds, log)
	}
	rtt, err := calibLoopback()
	if err != nil {
		return nil, fmt.Errorf("loopback calibration: %w", err)
	}
	fmt.Fprintf(log, "# calibration: cpu kernel %.0f ns, loopback rtt %.2f us\n", calibCPU(), rtt)
	return runUntraced(e, d, seconds, log)
}

// wireValue is one metric of the result object.
type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the last line of standard output.
type wireResult struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

// printReport prints every metric of the run by name with its unit, any
// failed check, and the result object.
func printReport(w io.Writer, rep *report) {
	spec := endToEnd
	if rep.traced {
		spec = perLayer
	}
	res := wireResult{
		Correct: len(rep.problems) == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed,
		Metrics: make(map[string]wireValue, len(spec)),
	}
	for _, m := range spec {
		v, ok := rep.metrics[m.name]
		if ok {
			fmt.Fprintf(w, "%s/%s %.6g %s\n", rep.workload, m.name, v, m.unit)
		} else {
			fmt.Fprintf(w, "%s/%s n/a %s\n", rep.workload, m.name, m.unit)
		}
		res.Metrics[m.name] = wireValue{Value: v, Unit: m.unit}
	}
	fmt.Fprintf(w, "%s/ops_attempted %d count\n%s/ops_failed %d count\n", rep.workload, res.Attempted, rep.workload, res.Failed)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAIL %s: %s\n", rep.workload, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a bug: the result holds only numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runChild runs one workload in a child process of this same binary and
// returns its result object. The child's report goes to out.
func runChild(d *workloadDef, seed int64, seconds, trace int, out io.Writer) (*wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", d.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if out != nil {
		out.Write(stdout)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	return lastResult(stdout)
}

// lastResult parses the result object off the last line of a run's output.
func lastResult(stdout []byte) (*wireResult, error) {
	end := len(stdout)
	for end > 0 && stdout[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && stdout[start-1] != '\n' {
		start--
	}
	var res wireResult
	if err := json.Unmarshal(stdout[start:end], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result object: %w", err)
	}
	return &res, nil
}

// runSuite is the one command: every workload, each in its own process.
func runSuite(seed int64, seconds, trace int) int {
	code := 0
	for _, d := range workloads {
		if _, err := runChild(d, seed, seconds, trace, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	return code
}
