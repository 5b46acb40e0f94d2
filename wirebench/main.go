// Command wirebench is the repository's end-to-end benchmark. It starts
// tcqd as separate processes (built from the tree under test), drives
// them over their sockets from one generator process, checks every
// output against references computed here, and prints one JSON result
// line.
//
// Usage (from the repository root, through the wrapper that builds):
//
//	bash wirebench/run.sh --workload shared_filter --seed 1 --seconds 16 --trace 0
//	bash wirebench/run.sh --workload window_join --seconds 16 --noise 10
//
// Each run has a drain phase (a fixed corpus pushed as fast as the
// socket accepts it, in rounds, each ending when its last expected
// result arrives) and a latency phase (the same kind of input sent
// open-loop at a fixed offered rate, timed from each event's due time).
// With --trace 1 the run also replays the drain corpus in-process with
// spans around each layer call and prints per-layer metrics instead of
// end-to-end ones. See README.md.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload run receives.
type config struct {
	tcqd    string // path of the tcqd binary under test
	seed    uint64
	seconds int
	trace   bool
	workDir string // scratch directory inside the checkout
}

// outcome is what a workload's wire run measured.
type outcome struct {
	setup       []float64 // seconds, one per set-up
	drainTPS    []float64 // per instance: drain tuples / drain time, 1/s
	drainCPU    []float64 // per instance: system-under-test CPU µs per drain tuple
	drainTuples int64
	drainSec    float64   // drain time over all instances
	cpuSec      float64   // system-under-test CPU over all drain rounds
	lat         latRec    // this instance's samples (reader-owned outcomes)
	lats        []latRec  // one per instance
	rss         []float64 // peak RSS of each instance, MB
	attempted   int64
	failed      int64
	correct     bool
	notes       []string           // problems found, printed before the result
	lags        []float64          // open-loop sender lag per event, ms
	layer       map[string]float64 // per-layer metrics (trace runs)
	frontBytes  int64              // result bytes read from FrontEnd sockets
}

// drained records one instance's drain rounds: n tuples in el, using
// cpu seconds of system CPU.
func (o *outcome) drained(n int64, el time.Duration, cpu float64) {
	o.drainTPS = append(o.drainTPS, float64(n)/el.Seconds())
	o.drainCPU = append(o.drainCPU, cpu*1e6/float64(n))
	o.drainTuples += n
	o.drainSec += el.Seconds()
	o.cpuSec += cpu
}

func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) wrong(format string, args ...any) {
	o.correct = false
	o.fail(1, format, args...)
}

// merge takes in what the reader goroutine found; call it once the
// reader has stopped.
func (o *outcome) merge(r *outcome) {
	o.correct = o.correct && r.correct
	o.failed += r.failed
	o.notes = append(o.notes, r.notes...)
	o.lats = append(o.lats, r.lat)
}

var workloads = map[string]func(config) (*outcome, error){
	"shared_filter": runSharedFilter,
	"window_join":   runWindowJoin,
	"result_stream": runResultStream,
	"cluster_fold":  runClusterFold,
}

func main() {
	workload := flag.String("workload", "", "shared_filter | window_join | result_stream | cluster_fold")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 16, "measured length of one run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	tcqd := flag.String("tcqd", "", "tcqd binary under test")
	work := flag.String("workdir", ".bench_build", "directory for span files")
	noise := flag.Int("noise", 0, "noise study: repeat the workload this many times (seeds 1..N) and print quartiles")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *tcqd == "" || *seconds < 4 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "wirebench: need -workload (one of shared_filter, window_join, result_stream, cluster_fold), -tcqd, -seconds 4..60, -trace 0|1")
		os.Exit(2)
	}
	if *noise > 0 {
		if err := noiseStudy(*workload, *noise, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "wirebench:", err)
			os.Exit(1)
		}
		return
	}
	// The generator is one process with no more threads than CPUs and
	// at most two (one sender, one reader).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	cfg := config{tcqd: *tcqd, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *work}
	printHost(*tcqd)
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wirebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range o.notes {
		fmt.Printf("# problem: %s\n", n)
	}
	lag := summarizeLag(o.lags)
	fmt.Printf("# sender lag: median %.3f ms, max %.3f ms over %d events\n", lag.medianMs, lag.maxMs, lag.n)
	fmt.Printf("# set-ups (s): %s\n# drain by instance (tuples/s): %s\n# drain by instance (CPU us/tuple): %s\n# drain: %d tuples, %.2f s CPU; latency samples: %d\n",
		fmtList(o.setup), fmtList(o.drainTPS), fmtList(o.drainCPU), o.drainTuples, o.cpuSec, o.samples())
	var p50s []float64
	for _, l := range o.lats {
		if v, ok := l.percentile(0.50); ok {
			p50s = append(p50s, v)
		}
	}
	fmt.Printf("# latency p50 by instance (ms): %s\n", fmtList(p50s))
	lat := o.latency()
	for _, p := range []float64{0.90, 0.95, 0.99} {
		if v, ok := lat.percentile(p); ok {
			fmt.Printf("# latency p%.0f (not gated, see README): %.3f ms\n", p*100, v)
		}
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for name, v := range o.layer {
			res.Metrics[name] = metric{Value: v, Unit: layerUnits[name]}
		}
	} else {
		m, err := endToEnd(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wirebench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		res.Metrics = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd turns a wire run into the end-to-end metrics. A run that
// cannot support a metric (too few latency samples for its percentile)
// is an error, not a missing number. Tail percentiles are printed but
// not reported: on a 2-CPU host p90, p95 and p99 moved by up to 60%,
// 60% and 150% of their median between sets of runs (README, "What was
// dropped").
func endToEnd(o *outcome) (map[string]metric, error) {
	p50, ok := o.latency().percentile(0.50)
	if !ok {
		return nil, fmt.Errorf("only %d latency samples: p50 needs ten beyond it", o.samples())
	}
	if len(o.drainTPS) == 0 || o.drainTuples == 0 || len(o.setup) == 0 || len(o.rss) == 0 {
		return nil, fmt.Errorf("drain phase measured nothing")
	}
	return map[string]metric{
		"setup_s":          {median(o.setup), "s"},
		"throughput_tps":   {float64(o.drainTuples) / o.drainSec, "1/s"},
		"cpu_us_per_tuple": {o.cpuSec * 1e6 / float64(o.drainTuples), "us"},
		"p50_ms":           {p50, "ms"},
		"peak_rss_mb":      {median(o.rss), "MB"},
	}, nil
}

// latency pools every instance's samples.
func (o *outcome) latency() *latRec {
	all := &latRec{}
	for _, l := range o.lats {
		all.ms = append(all.ms, l.ms...)
	}
	return all
}

func (o *outcome) samples() int {
	n := 0
	for _, l := range o.lats {
		n += len(l.ms)
	}
	return n
}

// printHost prints the host line every run carries.
func printHost(tcqd string) {
	commit := "unknown"
	if bi, err := buildinfo.ReadFile(tcqd); err == nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# host: num_cpu=%d gomaxprocs=%d (generator; tcqd runs with the default, num_cpu) go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}

// since returns seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
