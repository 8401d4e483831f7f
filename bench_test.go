// Package repro's benchmarks regenerate each of the paper's tables and
// figures (one benchmark per artifact, at the tiny preset so a full
// -bench=. sweep stays tractable) and measure per-step cost of every
// workload in both modes. The EXPERIMENTS.md numbers come from the
// fathom CLI at the reference preset; these benches are the CI-sized
// equivalents.
package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tensor"

	_ "repro/internal/models/all"
)

func benchOpts() experiments.Options {
	return experiments.Options{Preset: core.PresetTiny, Steps: 2, Warmup: 1, Seed: 1}
}

// ---- one benchmark per table/figure ----

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(); r.Text == "" {
			b.Fatal("empty table1")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table2(); r.Text == "" {
			b.Fatal("empty table2")
		}
	}
}

func BenchmarkFig1_Stationarity(b *testing.B) {
	o := benchOpts()
	o.Steps = 16
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_CumulativeOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_ClassHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_SimilarityDendrogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_TrainVsInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_deepq(b *testing.B)   { benchFig6(b, "deepq") }
func BenchmarkFig6_seq2seq(b *testing.B) { benchFig6(b, "seq2seq") }
func BenchmarkFig6_memnet(b *testing.B)  { benchFig6(b, "memnet") }

func benchFig6(b *testing.B, model string) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchOpts(), model); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Overhead(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- per-workload step benchmarks (small preset) ----

func benchStep(b *testing.B, name string, mode core.Mode) {
	m, err := core.New(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetSmall, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	s := runtime.NewSession(m.Graph(), runtime.WithSeed(1))
	if err := core.Step(m, s, mode); err != nil { // warm the plan cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Step(m, s, mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepTraining(b *testing.B) {
	for _, name := range experiments.Workloads() {
		b.Run(name, func(b *testing.B) { benchStep(b, name, core.ModeTraining) })
	}
}

func BenchmarkStepInference(b *testing.B) {
	for _, name := range experiments.Workloads() {
		b.Run(name, func(b *testing.B) { benchStep(b, name, core.ModeInference) })
	}
}

// ---- inter-op scheduler benchmarks ----

// benchInterOp measures one workload's training step at an inter-op
// width. Wall ns/op is the host cost (real goroutine speedup needs
// free cores); the reported sim-µs/step metric is the simulated
// parallel makespan and speedup×100 is the achieved inter-op speedup
// ×100 over the serial op-time sum — the modeled numbers to compare
// across widths, following the suite's simulated-timing philosophy.
func benchInterOp(b *testing.B, name string, interop int) {
	m, err := core.New(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetSmall, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	s := runtime.NewSession(m.Graph(),
		runtime.WithSeed(1),
		runtime.WithInterOpWorkers(interop),
		runtime.WithTrace(),
	)
	if err := core.Step(m, s, core.ModeTraining); err != nil { // compile the plan
		b.Fatal(err)
	}
	s.ResetTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Step(m, s, core.ModeTraining); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	io := profiling.InterOp(s.Trace())
	if io.Steps > 0 {
		b.ReportMetric(float64(io.Makespan.Microseconds())/float64(io.Steps), "sim-µs/step")
		b.ReportMetric(100*io.Achieved, "speedup×100")
	}
}

// The wide-graph workloads the scheduler exists for: residual's
// parallel towers and memnet's independent hops.
func BenchmarkInterOpResidual(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("interop%d", w), func(b *testing.B) { benchInterOp(b, "residual", w) })
	}
}

func BenchmarkInterOpMemnet(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("interop%d", w), func(b *testing.B) { benchInterOp(b, "memnet", w) })
	}
}

// ---- serving engine benchmarks ----

// benchServe measures the engine end to end: concurrent clients
// submitting single-example requests through the micro-batching queue
// and session pool. Reported ns/op is per request.
func benchServe(b *testing.B, name string, sessions, maxBatch, clients int) {
	benchServeOpts(b, name, clients, serve.Options{
		Sessions: sessions, MaxBatch: maxBatch, MaxDelay: 500 * time.Microsecond,
	})
}

func benchServeOpts(b *testing.B, name string, clients int, opts serve.Options) {
	m, err := core.New(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 1, Batch: opts.MaxBatch}); err != nil {
		b.Fatal(err)
	}
	e, err := serve.New(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	sig := m.Signature(core.ModeInference)
	example := map[string]*tensor.Tensor{}
	for _, in := range sig.Inputs {
		example[in.Name] = tensor.New(in.ExampleShape()...)
	}
	ctx := context.Background()
	// Warm every worker session's plan cache: enough concurrent
	// requests that each worker executes at least one batch.
	var warm sync.WaitGroup
	for i := 0; i < opts.Sessions*e.MaxBatch(); i++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			if _, err := e.Infer(ctx, example); err != nil {
				b.Error(err)
			}
		}()
	}
	warm.Wait()
	if b.Failed() {
		b.FailNow()
	}
	e.ResetStats() // exclude the compile-cost warmup from fill/p99
	b.ResetTimer()
	// Exactly `clients` concurrent submitters sharing b.N requests
	// (RunParallel's SetParallelism would multiply by GOMAXPROCS and
	// measure a different load).
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		n := b.N / clients
		if c < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := e.Infer(ctx, example); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	s := e.Stats()
	b.ReportMetric(s.MeanBatchFill, "fill")
	b.ReportMetric(float64(s.P99Latency.Microseconds()), "p99-µs")
}

// benchTrainReplicas measures data-parallel training throughput: one
// global step (4 chunks of the tiny-preset batch, gradients +
// ascending-chunk all-reduce + replicated apply) per iteration at the
// given replica count on a scoped shared pool. Comparing the
// replicas=1 and replicas=4 variants on a multi-core runner shows the
// wall speedup the deterministic all-reduce leaves on the table;
// results are bit-identical at every width (the dist harness pins it).
func benchTrainReplicas(b *testing.B, replicas int) {
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New("autoenc", dist.Options{
		Replicas: replicas, Chunks: 4, Preset: core.PresetTiny, Seed: 1, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Train(1); err != nil { // compile plans outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	t := tr.Timing()
	if t.Wall > 0 {
		b.ReportMetric(float64(t.GradMax)/float64(t.Wall), "grad-frac")
	}
}

func BenchmarkTrainReplicas1(b *testing.B) { benchTrainReplicas(b, 1) }
func BenchmarkTrainReplicas4(b *testing.B) { benchTrainReplicas(b, 4) }

// BenchmarkTrainFused4 measures a horizontally fused replica on the
// same workload and grid as benchTrainReplicas: one Step advances four
// trainees, so its ns/op is directly comparable to 4× the
// replicas-1 ns/op (the sequential-standalone baseline HFTA-style
// fusion amortizes).
func BenchmarkTrainFused4(b *testing.B) {
	const width = 4
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New("autoenc", dist.Options{
		LRScales: []float32{1, 1, 1, 1}, Chunks: 4, Preset: core.PresetTiny, Seed: 1, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(); err != nil { // compile plans outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	t := tr.Timing()
	if t.Wall > 0 {
		b.ReportMetric(float64(t.Steps*width)/t.Wall.Seconds(), "trainee-steps/s")
	}
}

func BenchmarkServeAlexnet(b *testing.B) { benchServe(b, "alexnet", 2, 8, 8) }
func BenchmarkServeMemnet(b *testing.B)  { benchServe(b, "memnet", 2, 8, 8) }
func BenchmarkServeUnbatched(b *testing.B) {
	// MaxBatch 1 isolates the cost of the queue + pool without
	// coalescing — the baseline dynamic batching must beat.
	benchServe(b, "memnet", 2, 1, 8)
}

// BenchmarkServeOverload hammers a deliberately small engine (one
// session, 4-deep queues, a 25ms deadline budget) with 32 closed-loop
// clients — far past capacity. ns/op is per *submitted* request;
// goodput×100 and shed×100 report what fraction completed in budget
// vs was refused (rejected, shed, or expired). The admission layer's
// job is a high shed fraction with nonzero goodput — never a stall.
func BenchmarkServeOverload(b *testing.B) {
	m, err := core.New("memnet")
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 1, Batch: 4}); err != nil {
		b.Fatal(err)
	}
	e, err := serve.New(m, serve.Options{
		Sessions: 1, MaxBatch: 4, MaxDelay: 200 * time.Microsecond,
		QueueLen: 4, DefaultDeadline: 25 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	sig := m.Signature(core.ModeInference)
	example := map[string]*tensor.Tensor{}
	for _, in := range sig.Inputs {
		example[in.Name] = tensor.New(in.ExampleShape()...)
	}
	ctx := context.Background()
	if _, err := e.Infer(ctx, example); err != nil { // compile the plan
		b.Fatal(err)
	}
	e.ResetStats()
	b.ResetTimer()
	const clients = 32
	var ok, refused, failed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		n := b.N / clients
		if c < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				switch _, err := e.Infer(ctx, example); {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrExpired):
					refused.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() > 0 {
		b.Fatalf("%d requests failed with unexpected errors", failed.Load())
	}
	total := ok.Load() + refused.Load()
	if total > 0 {
		b.ReportMetric(100*float64(ok.Load())/float64(total), "goodput×100")
		b.ReportMetric(100*float64(refused.Load())/float64(total), "shed×100")
	}
	s := e.Stats()
	b.ReportMetric(float64(s.P99Latency.Microseconds()), "p99-µs")
}

// BenchmarkServeIntraOp serves with real intra-op kernel parallelism
// (4-wide pools on the shared worker pool) against the serial
// BenchmarkServeAlexnet baseline: on a multi-core host the per-request
// latency drops, while the worker-pool bound keeps total execution
// goroutines flat no matter the load. Bit-identical results either
// way (the engine's correctness tests pin that).
func BenchmarkServeIntraOp(b *testing.B) {
	benchServeOpts(b, "alexnet", 8, serve.Options{
		Sessions: 2, MaxBatch: 8, MaxDelay: 500 * time.Microsecond,
		IntraOpWorkers: 4,
	})
}
