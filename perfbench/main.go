// Command perfbench is the repository's benchmark: it drives the serving
// and data-parallel training stacks from outside, through their public
// entry points only, checks every output, and prints each metric by
// name and unit.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	serve-alexnet    alexnet (tiny), ~131 KB JSON bodies, Poisson arrivals at
//	                 60 requests/s through the real HTTP handler: kernels and
//	                 the JSON codec dominate.
//	serve-memnet     memnet (tiny), ~160 B bodies, Poisson arrivals at 1000
//	                 requests/s: admission, queueing and batch fill dominate.
//	train-attention  attention (small), internal/dist with 2 replicas x 4
//	                 chunks, closed loop: GEMM-heavy forward, backward and
//	                 optimizer updates.
//
// With --trace 0 the whole run is untraced and prints the end-to-end
// metrics: set-up time, median latency, throughput and peak memory.
// With --trace 1 it prints the per-layer metrics: an untraced phase
// gives the tail latencies (and, for serving, a rate ladder the
// highest sustained rate), then a traced phase splits the time from the
// HTTP body down to the kernel. The last line of standard output is one
// JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Every emitted metric set is checked against BENCHMARK.json in the
// working directory: a missing, extra or non-finite metric is an error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/models/all"
)

// metric is one named figure with its unit, as BENCHMARK.json lists it.
type metric struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run. Every
// workload reports every one; see the workload files for what each
// means on a serving and on a training workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"train_samples_per_s", "1/s"},
	{"mem_peak_mb", "MB"},
}

// kernelOps are the tensor kernels reported per call: every op that
// takes at least 5% of some workload's op time (Conv2D and LRN on
// alexnet; Sum, Gather, Tile, Add, Mul and MatMul on memnet; MatMul,
// BatchMatMul and Mul on attention). A workload that never runs one
// reports zeros for it.
var kernelOps = []string{"Conv2D", "LRN", "Sum", "Gather", "Tile", "Add", "Mul", "MatMul", "BatchMatMul"}

// perLayer are the metrics of a traced run, named by module. Layers a
// workload does not exercise (dist on serving, serve on training)
// report zero.
var perLayer = func() []metric {
	m := []metric{
		// Whole-run tail and capacity figures: measured untraced, but
		// on a shared two-core host their run-to-run spread is too wide
		// to hold them to a regression bound.
		{"latency_p99_ms", "ms"},
		{"step_p99_ms", "ms"},
		{"max_rate_rps", "1/s"},
		{"serve.codec_ms", "ms"},
		{"serve.body_kb", "KB"},
		{"serve.admission_us", "us"},
		{"serve.queue_wait_p50_ms", "ms"},
		{"serve.queue_wait_p99_ms", "ms"},
		{"serve.rejected_frac", "frac"},
		{"serve.shed_frac", "frac"},
		{"serve.expired_frac", "frac"},
		{"serve.batch_fill", "count"},
		{"serve.batches_per_s", "1/s"},
		{"serve.batch_pack_ms", "ms"},
		{"serve.unattributed_ms", "ms"},
		{"runtime.run_ms", "ms"},
		{"runtime.self_ms", "ms"},
		{"runtime.arena_reuse_ratio", "frac"},
	}
	for _, c := range classLetters {
		m = append(m, metric{"ops." + c + "_ms", "ms"})
	}
	for _, op := range kernelOps {
		m = append(m, metric{"tensor." + op + ".us_per_call", "us"}, metric{"tensor." + op + ".calls", "count"})
	}
	return append(m,
		metric{"sched.pool_busy_frac", "frac"},
		metric{"sched.lease_granted", "count"},
		metric{"dist.sample_ms", "ms"},
		metric{"dist.grad_ms", "ms"},
		metric{"dist.reduce_ms", "ms"},
		metric{"dist.apply_ms", "ms"},
		metric{"dist.step_ms", "ms"},
		metric{"dist.grad_imbalance", "ratio"},
		metric{"bench.gen_late_p99_ms", "ms"},
		metric{"bench.client_ms", "ms"},
		metric{"bench.latency_mean_ms", "ms"},
		metric{"bench.trace_overhead_frac", "frac"},
		metric{"error_rate", "frac"},
	)
}()

var classLetters = []string{"A", "B", "C", "D", "E", "F", "G"}

// result is what one run reports: the figures, the request (or step)
// counts behind them, and every correctness problem found.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// notExercised reports zero for every per-layer metric whose name
// starts with one of prefixes: layers the workload does not run.
func notExercised(r *result, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				r.set(m.name, 0)
			}
		}
	}
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *result) error{
	"serve-alexnet":   func(c config, r *result) error { return runServe(alexnetSpec, c, r) },
	"serve-memnet":    func(c config, r *result) error { return runServe(memnetSpec, c, r) },
	"train-attention": func(c config, r *result) error { return runTrain(attentionSpec, c, r) },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: serve-alexnet, serve-memnet or train-attention")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: keys the examples, the arrival schedule and the dist seeds")
	flag.Float64Var(&c.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	flag.Parse()
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 || c.seconds > 600 {
		return fmt.Errorf("--seconds %v out of range (0, 600]", c.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	c.trace = trace == 1
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	if err := checkDeclared("BENCHMARK.json", want, c.trace); err != nil {
		return err
	}
	printRecord(c)

	res := &result{metrics: map[string]float64{}}
	if err := measure(c, res); err != nil {
		return err
	}
	return emit(res, want)
}

// measure runs the configured workload and adds the run-wide figures.
func measure(c config, res *result) error {
	if err := workloads[c.workload](c, res); err != nil {
		return err
	}
	if !c.trace {
		res.set("mem_peak_mb", peakRSSMB())
	}
	return nil
}

// emit prints every metric of want as a table and then the result
// line. A metric the workload did not set, or set to a non-finite
// value, is an error: the result line is not printed.
func emit(res *result, want []metric) error {
	out := map[string]any{}
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", m.name, v)
		}
		fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, p := range res.problems {
		fmt.Println("PROBLEM:", p)
	}
	if res.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return fmt.Errorf("%d correctness problems", len(res.problems))
	}
	return nil
}

// checkDeclared compares the metric list a run will emit with the one
// the benchmark declaration at path lists (end_to_end for an untraced
// run, per_layer for a traced one), name for name and unit for unit.
func checkDeclared(path string, want []metric, traced bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read benchmark declaration: %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	listed := decl.EndToEnd
	if traced {
		listed = decl.PerLayer
	}
	units := map[string]string{}
	for _, m := range listed {
		units[m.Name] = m.Unit
	}
	for _, m := range want {
		u, ok := units[m.name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json does not declare metric %s", m.name)
		}
		if u != m.unit {
			return fmt.Errorf("BENCHMARK.json declares %s in %s, the benchmark measures %s", m.name, u, m.unit)
		}
		delete(units, m.name)
	}
	if len(units) > 0 {
		extra := make([]string, 0, len(units))
		for n := range units {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return fmt.Errorf("BENCHMARK.json declares metrics the benchmark does not measure: %v", extra)
	}
	return nil
}

// printRecord prints the run record: host, toolchain, commit and seed,
// so a figure can be traced to the configuration that produced it.
func printRecord(c config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	rec, _ := json.Marshal(map[string]any{ // plain values always marshal
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"commit":     commit,
	})
	fmt.Println("record", string(rec))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// A run repeats its set-up at least minSetups times and until
// setupBudget has passed (at most maxSetups times); setup_s is the
// median, so one slow repetition does not move it.
const (
	minSetups   = 5
	maxSetups   = 1000
	setupBudget = 1500 * time.Millisecond
)

func moreSetups(done int, began time.Time) bool {
	return done < minSetups || (done < maxSetups && time.Since(began) < setupBudget)
}

// setupStart collects the garbage earlier repetitions left behind, so
// that each timed set-up starts from a clean heap as in a fresh
// process, and returns the set-up's start time. Without it a set-up
// that a collection happened to land in reads slow, and the median of
// memnet's ~1.5 ms set-ups moved by 30% between runs.
func setupStart() time.Time {
	goruntime.GC()
	return time.Now()
}

// windowed splits values into n equal time windows over span by each
// value's offset at[i]; empty windows stay empty.
func windowed(at []time.Duration, v []float64, span time.Duration, n int) [][]float64 {
	n = max(n, 1)
	out := make([][]float64, n)
	for i := range v {
		k := min(max(int(int64(at[i])*int64(n)/int64(span)), 0), n-1)
		out[k] = append(out[k], v[i])
	}
	return out
}

// windowMedian is the median over the non-empty windows of each
// window's q-quantile. Short bursts of host interference then move
// only the windows they fall in.
func windowMedian(ws [][]float64, q float64) float64 {
	var qs []float64
	for _, w := range ws {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// tailWindows is how many windows n samples split into so that each
// window's 99th percentile has at least ten samples beyond it: about
// 1200 samples a window, so Poisson variation in the count keeps it
// above 1000.
func tailWindows(n int) int {
	if n < 1000 {
		fmt.Printf("note: a 99th percentile rests on %d samples, fewer than ten beyond it\n", n)
	}
	return max(n/1200, 1)
}
