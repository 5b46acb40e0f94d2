package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// noiseStudy runs the workload n times, seeds 1..n, each in a fresh
// child process exactly as a single run would, and prints every
// metric's median, quartiles and spread (interquartile range over
// median). The bounds in BENCHMARK.json are set from this output.
func noiseStudy(workload string, n, seconds int, trace bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	for seed := 1; seed <= n; seed++ {
		args := append([]string(nil), os.Args[1:]...)
		args = append(args, "-noise", "0", "-seed", strconv.Itoa(seed))
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs incorrect:\n%s", seed, out)
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Printf("seed %d: %s\n", seed, lines[len(lines)-1])
	}
	fmt.Printf("# %s, %d runs of %ds, trace=%v; failed/attempted per run: %v\n", workload, n, seconds, trace, failShares)
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %-6s %14.6g %14.6g %14.6g %8.4f\n", name, units[name], q1, med, q3, spread)
	}
	return nil
}

// quartiles follows Python's statistics.quantiles(xs, n=4), whose
// default (exclusive) method places the i-th cut at position
// i*(len+1)/4 of the sorted data, interpolating between neighbours and
// clamping to the ends.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/n, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}
