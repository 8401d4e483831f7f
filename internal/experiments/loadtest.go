package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

// LoadTestOptions parameterizes the serving load test.
type LoadTestOptions struct {
	Model     string        // workload to serve (required)
	QPS       float64       // 1× stage rate; 0 = measure capacity first
	Duration  time.Duration // per-stage duration (default 2s)
	Arrival   loadgen.Arrival
	BatchFrac float64       // fraction of traffic on the batch lane
	Deadline  time.Duration // per-request deadline budget (default 250ms)

	// Engine shape.
	Sessions int
	MaxBatch int
	MaxDelay time.Duration
	QueueLen int
	InterOp  int
	IntraOp  int
}

// LoadTest is the serving robustness experiment (`fathom loadtest`,
// part of `fathom all`): it builds one engine with admission control
// armed (bounded lanes + deadline budget), measures its closed-loop
// capacity, then drives it open-loop at 0.5×/1×/2× of that capacity
// with mixed-priority traffic. The report shows the overload contract
// in numbers: at 2× the engine must shed early — goodput holding near
// its 1× value and admitted-request p99 inside the deadline budget —
// instead of letting every request's latency collapse.
func LoadTest(o Options, lt LoadTestOptions) (Result, error) {
	o = o.withDefaults()
	if lt.Model == "" {
		lt.Model = "memnet"
	}
	if lt.Duration <= 0 {
		lt.Duration = 2 * time.Second
	}
	if lt.Deadline <= 0 {
		lt.Deadline = 250 * time.Millisecond
	}
	if lt.Sessions <= 0 {
		lt.Sessions = 2
	}
	if lt.MaxBatch <= 0 {
		lt.MaxBatch = 8
	}
	if lt.MaxDelay <= 0 {
		lt.MaxDelay = 500 * time.Microsecond
	}
	if lt.BatchFrac < 0 || lt.BatchFrac > 1 {
		return Result{}, fmt.Errorf("loadtest: batch fraction %v outside [0,1]", lt.BatchFrac)
	}
	m, err := core.New(lt.Model)
	if err != nil {
		return Result{}, err
	}
	if err := m.Setup(core.Config{Preset: o.Preset, Seed: o.Seed, Batch: lt.MaxBatch}); err != nil {
		return Result{}, fmt.Errorf("loadtest: setup %s: %w", lt.Model, err)
	}
	eng, err := serve.New(m, serve.Options{
		Sessions:        lt.Sessions,
		MaxBatch:        lt.MaxBatch,
		MaxDelay:        lt.MaxDelay,
		Seed:            o.Seed,
		InterOpWorkers:  lt.InterOp,
		IntraOpWorkers:  lt.IntraOp,
		QueueLen:        lt.QueueLen,
		DefaultDeadline: lt.Deadline,
	})
	if err != nil {
		return Result{}, err
	}
	defer eng.Close()
	examples, err := serve.Examples(m, 4*eng.MaxBatch())
	if err != nil {
		return Result{}, err
	}
	// Warm every worker session's plan cache so capacity and latency
	// reflect steady state, not one-time compilation.
	var warm sync.WaitGroup
	for i := 0; i < lt.Sessions*eng.MaxBatch(); i++ {
		warm.Add(1)
		go func(i int) {
			defer warm.Done()
			_, _ = eng.Infer(context.Background(), examples[i%len(examples)])
		}(i)
	}
	warm.Wait()
	eng.ResetStats()

	capacity := lt.QPS
	if capacity <= 0 {
		capacity, err = loadgen.EstimateCapacity(eng, examples, lt.Sessions*eng.MaxBatch(), 500*time.Millisecond)
		if err != nil {
			return Result{}, err
		}
		eng.ResetStats()
	}
	rep, err := loadgen.Run(eng, examples, loadgen.Config{
		Stages:    loadgen.CapacityStages(capacity, lt.Duration),
		Arrival:   lt.Arrival,
		Seed:      o.Seed,
		BatchFrac: lt.BatchFrac,
		Deadline:  lt.Deadline,
	})
	if err != nil {
		return Result{}, err
	}

	var text, csv strings.Builder
	fmt.Fprintf(&text, "open-loop load test: %s (%s preset), capacity %.0f qps, %s arrivals, %.0f%% batch lane, deadline %v\n\n",
		lt.Model, o.Preset, capacity, rep.Arrival, 100*lt.BatchFrac, lt.Deadline)
	fmt.Fprintf(&text, "%-6s %9s %9s %9s %7s %7s %8s %8s %8s | %8s %8s | %8s %8s\n",
		"stage", "offered", "goodput", "achieved", "shed%", "drop", "p50ms", "p99ms", "p999ms", "int-p99", "bat-p99", "wait-p50", "wait-p99")
	csv.WriteString("stage,offered_qps,goodput_qps,achieved_qps,shed_rate,dropped,rejected,shed,expired,p50_ms,p99_ms,p999_ms,interactive_p99_ms,batch_p99_ms,queue_wait_p50_ms,queue_wait_p99_ms,queue_wait_p999_ms\n")
	for _, st := range rep.Stages {
		// The merged quantiles weight each lane by its completions.
		p50, p99, p999 := mergedQuantiles(st)
		fmt.Fprintf(&text, "%-6s %9.1f %9.1f %9.1f %6.1f%% %7d %8.2f %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f\n",
			st.Name, st.OfferedQPS, st.GoodputQPS, st.AchievedQPS, 100*st.ShedRate, st.Dropped,
			p50, p99, p999, st.Interactive.P99MS, st.Batch.P99MS,
			st.QueueWaitP50MS, st.QueueWaitP99MS)
		fmt.Fprintf(&csv, "%s,%.2f,%.2f,%.2f,%.4f,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			st.Name, st.OfferedQPS, st.GoodputQPS, st.AchievedQPS, st.ShedRate, st.Dropped,
			st.EngineRejected, st.EngineShed, st.EngineExpired,
			p50, p99, p999, st.Interactive.P99MS, st.Batch.P99MS,
			st.QueueWaitP50MS, st.QueueWaitP99MS, st.QueueWaitP999MS)
	}
	text.WriteString("\ngoodput: completions inside the deadline budget per second — under 2x overload it must hold near the 1x value\n")
	text.WriteString("shed%: requests refused early (queue full, budget shed) or expired, instead of queueing unboundedly\n")
	text.WriteString("int/bat-p99: per-lane p99 — the interactive lane must stay bounded while the batch lane absorbs the overload\n")
	text.WriteString("wait-p50/p99: time admitted requests spent queued before batch pickup — the queueing share of end-to-end latency\n")
	return Result{
		ID:    "loadtest",
		Title: fmt.Sprintf("Serving under overload: %s at 0.5x/1x/2x capacity", lt.Model),
		Text:  text.String(),
		CSV:   csv.String(),
	}, nil
}

// mergedQuantiles approximates stage-wide latency quantiles from the
// per-lane reports, weighting each lane by its completion count.
func mergedQuantiles(st loadgen.StageReport) (p50, p99, p999 float64) {
	ni, nb := float64(st.Interactive.OK), float64(st.Batch.OK)
	if ni+nb == 0 {
		return 0, 0, 0
	}
	w := func(a, b float64) float64 { return (a*ni + b*nb) / (ni + nb) }
	return w(st.Interactive.P50MS, st.Batch.P50MS),
		w(st.Interactive.P99MS, st.Batch.P99MS),
		w(st.Interactive.P999MS, st.Batch.P999MS)
}
