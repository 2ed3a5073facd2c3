package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the contract the acceptance driver reads.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json from the checkout root or bench/.
func readBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// worseBy is how much worse b is than a as a share of a (negative = better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs the suite as two interleaved sets (A, B, A, B, ...) of
// n runs per workload, each run on another seed, and judges them the way
// the acceptance driver judges the benchmark: within each set the quartile
// range of every end-to-end metric but setup_s must stay within the
// metric's bound, and set B's median must not be worse than set A's by more
// than the bound. It also prints the spread of all 2n runs together, which
// should stay below a third of the bound.
func runSelfcheck(n int, seed int64, seconds int) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][2][]float64{}
	for _, d := range workloads {
		values[d.name] = map[string][2][]float64{}
	}
	run := 0
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, d := range workloads {
				res, err := runChild(d, seed+int64(run), seconds, 0, nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s run %d is not correct\n", d.name, run)
					return 1
				}
				for name, v := range res.Metrics {
					sets := values[d.name][name]
					sets[set] = append(sets[set], v.Value)
					values[d.name][name] = sets
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d set %c %s done\n", i+1, 'A'+set, d.name)
			}
			run++
		}
	}
	fmt.Printf("| workload | metric | median A | median B | IQR A | IQR B | B worse by | IQR all | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	for _, d := range workloads {
		for _, m := range bf.EndToEnd {
			sets := values[d.name][m.Name]
			a, b := sets[0], sets[1]
			worse := worseBy(m.Better, median(a), median(b))
			sa, sb := spreadFrac(a), spreadFrac(b)
			verdict := "PASS"
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.1f%% | %.1f%% | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				d.name, m.Name, median(a), median(b), 100*sa, 100*sb, 100*worse,
				100*spreadFrac(append(append([]float64(nil), a...), b...)), 100*m.Bound, verdict)
		}
	}
	return code
}
