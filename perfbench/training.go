package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// trainSpec is one training workload: a dist trainer run closed loop,
// one global step after another.
type trainSpec struct {
	model            string
	preset           core.Preset
	replicas, chunks int
	// checkSteps are the warm-up steps whose losses must equal a
	// replicas-1 reference bit for bit.
	checkSteps int
}

var attentionSpec = trainSpec{model: "attention", preset: core.PresetSmall, replicas: 2, chunks: 4, checkSteps: 3}

func newTrainer(spec trainSpec, seed int64, replicas int) (*dist.Trainer, error) {
	return dist.New(spec.model, dist.Options{Replicas: replicas, Chunks: spec.chunks, Preset: spec.preset, Seed: seed})
}

// runTrain measures a training workload, where the unit of work is one
// global step: latency_p50_ms, latency_p99_ms and step_p99_ms are step
// walls, max_rate_rps is global steps per second and
// train_samples_per_s is global batch x steps per second, each rate
// the median over one-second windows.
func runTrain(spec trainSpec, c config, res *result) error {
	ref, err := newTrainer(spec, c.seed, 1)
	if err != nil {
		return err
	}
	want, err := ref.Train(spec.checkSteps)
	ref.Close()
	if err != nil {
		return fmt.Errorf("replicas-1 reference: %w", err)
	}

	var tr *dist.Trainer
	var setups []float64
	for began := time.Now(); moreSetups(len(setups), began); {
		if tr != nil {
			tr.Close()
		}
		t0 := setupStart()
		if tr, err = newTrainer(spec, c.seed, spec.replicas); err != nil {
			return err
		}
		got, err := tr.Train(spec.checkSteps)
		if err != nil {
			tr.Close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.attempted += len(got)
		for s := range got {
			if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
				res.failed++
				res.problemf("step %d loss %v at %d replicas, %v at 1", s, got[s], spec.replicas, want[s])
			}
		}
	}
	defer tr.Close()
	res.set("setup_s", median(setups))
	globalBatch := tr.Partition().GlobalBatch
	total := time.Duration(c.seconds * float64(time.Second))

	if !c.trace {
		at, steps := trainLoop(tr, total, res)
		res.set("latency_p50_ms", windowMedian(windowed(at, steps, total, int(total/time.Second)), 0.50))
		res.set("train_samples_per_s", float64(globalBatch)*stepRate(at, steps, total))
		return nil
	}

	// Traced run, phase 1: dist's own per-step phase log.
	tr.ResetTiming()
	mon := startMonitor("dist/"+spec.model, func() {})
	at, steps := trainLoop(tr, total/2, res)
	busy, granted := mon.stop()
	p99 := windowMedian(windowed(at, steps, total/2, tailWindows(len(steps))), 0.99)
	res.set("latency_p99_ms", p99)
	res.set("step_p99_ms", p99)
	res.set("max_rate_rps", stepRate(at, steps, total/2))
	log := tr.PhaseLog() // the last steps, as many as the trainer's phase ring keeps
	var sample, grad, reduce, apply, wall float64
	for _, p := range log {
		sample += ms(p.Sample)
		grad += ms(p.Grad - p.Sample) // Grad includes the interleaved sampling
		reduce += ms(p.Reduce)
		apply += ms(p.Apply)
		wall += ms(p.Wall)
	}
	n := float64(max(len(log), 1))
	res.set("dist.sample_ms", sample/n)
	res.set("dist.grad_ms", grad/n)
	res.set("dist.reduce_ms", reduce/n)
	res.set("dist.apply_ms", apply/n)
	res.set("dist.step_ms", wall/n)
	tm := tr.Timing()
	imbalance := 0.0
	if tm.GradSum > 0 {
		imbalance = float64(tm.GradMax) * float64(spec.replicas) / float64(tm.GradSum)
	}
	res.set("dist.grad_imbalance", imbalance)
	res.set("sched.pool_busy_frac", busy)
	res.set("sched.lease_granted", granted)
	res.set("bench.latency_mean_ms", mean(steps))
	// The phases leave out only the trainer's own coordination (handing
	// replicas to the pool, joining them, combining the loss).
	reconcile(res, "mean step wall", (sample+grad+reduce+apply)/n, wall/n, 0.05)

	// Phase 2: the same per-step work on one session with op tracing,
	// alternating with an untraced session to measure the overhead.
	part := tr.Partition()
	tr.Close()
	if err := traceOps(spec, c.seed, part, total/2, res); err != nil {
		return err
	}
	notExercised(res, "serve.", "bench.gen_late_p99_ms", "bench.client_ms")
	res.set("error_rate", float64(res.failed)/float64(res.attempted))
	return nil
}

// stepRate is the median over one-second windows of the steps per
// second within the window: its step count over the summed walls of
// those steps.
func stepRate(at []time.Duration, steps []float64, span time.Duration) float64 {
	var rates []float64
	for _, w := range windowed(at, steps, span, int(span/time.Second)) {
		if len(w) > 0 {
			rates = append(rates, 1000/mean(w))
		}
	}
	return median(rates)
}

// trainLoop runs global steps back to back for dur and returns each
// step's start offset and its wall in milliseconds. A non-finite loss
// is a failed step.
func trainLoop(tr *dist.Trainer, dur time.Duration, res *result) (at []time.Duration, steps []float64) {
	start := time.Now()
	for time.Since(start) < dur {
		t0 := time.Now()
		loss, err := tr.Step()
		at = append(at, t0.Sub(start))
		steps = append(steps, ms(time.Since(t0)))
		res.attempted++
		if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
			res.failed++
			res.problemf("step %d failed: loss %v, err %v", tr.Steps(), loss, err)
		}
	}
	return at, steps
}

// traceOps replays a dist global step's work -- every chunk's forward
// and backward fetch, then one fed-gradient update per replica -- on a
// single session of a fresh replica, alternating an untraced session
// and a runtime.WithTrace session over the same graph. Op times are per
// global step, summed over replicas: the work, not the wall.
func traceOps(spec trainSpec, seed int64, part dataset.Partition, dur time.Duration, res *result) error {
	m, err := core.New(spec.model)
	if err != nil {
		return err
	}
	if err := m.Setup(core.Config{Preset: spec.preset, Seed: seed, Batch: part.ChunkBatch()}); err != nil {
		return err
	}
	tm, ok := m.(dist.Trainable)
	if !ok {
		return fmt.Errorf("%s is not dist-trainable", spec.model)
	}
	plan := tm.TrainPlan()
	applyNode, gradIn, err := plan.DistApply()
	if err != nil {
		return err
	}
	fetches := append([]*graph.Node{plan.Loss()}, plan.Grads()...)
	inputs := map[string]*graph.Node{}
	for _, in := range m.Signature(core.ModeTraining).Inputs {
		inputs[in.Name] = in.Node
	}
	plainSess := runtime.NewSession(m.Graph(), runtime.WithSeed(seed))
	defer plainSess.Close()
	tracedSess := runtime.NewSession(m.Graph(), runtime.WithSeed(seed), runtime.WithTrace())
	defer tracedSess.Close()

	step := func(s *runtime.Session, k int) (run time.Duration, err error) {
		s.SetTraining(true)
		var grads runtime.Feeds
		for c := 0; c < part.Chunks; c++ {
			cs := dataset.ChunkSeed(seed, k, c)
			s.Reseed(cs)
			sample, err := tm.TrainSample(s, cs)
			if err != nil {
				return 0, err
			}
			feeds := runtime.Feeds{}
			for name, v := range sample {
				feeds[inputs[name]] = v
			}
			t0 := time.Now()
			vals, err := s.Run(fetches, feeds)
			run += time.Since(t0)
			if err != nil {
				return 0, err
			}
			grads = runtime.Feeds{}
			for i, in := range gradIn {
				grads[in] = vals[1+i]
			}
		}
		for r := 0; r < part.Replicas; r++ {
			t0 := time.Now()
			_, err := s.Run([]*graph.Node{applyNode}, grads)
			run += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		return run, nil
	}

	agg := newSpanAgg(m.Graph())
	var plainWall, tracedWall []float64
	var runWall time.Duration
	start := time.Now()
	for k := 0; time.Since(start) < dur || k < 4; k++ {
		traced := k%2 == 1
		s := plainSess
		if traced {
			s = tracedSess
		}
		t0 := time.Now()
		run, err := step(s, k)
		if err != nil {
			return fmt.Errorf("traced replay step %d: %w", k, err)
		}
		wall := ms(time.Since(t0))
		if !traced {
			plainWall = append(plainWall, wall)
			continue
		}
		tracedWall = append(tracedWall, wall)
		runWall += run
		for _, ev := range tracedSess.Trace() {
			agg.op(ev.Op, ev.Wall)
		}
		tracedSess.ResetTrace()
	}
	units := float64(len(tracedWall))
	agg.setOps(res, units)
	res.set("runtime.run_ms", ms(runWall)/units)
	res.set("runtime.self_ms", ms(runWall-agg.opTotal())/units)
	res.set("runtime.arena_reuse_ratio", tracedSess.Arena().Stats().ReuseRatio())
	res.set("bench.trace_overhead_frac", mean(tracedWall)/mean(plainWall)-1)
	return nil
}
