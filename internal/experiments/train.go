package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/profiling"
	"repro/internal/telemetry"
)

// trainRun is one training measurement.
type trainRun struct {
	losses [][]float64 // [trainee][step]
	timing dist.Timing
	batch  int
	chunks int
}

// unitScales is width trainees at learning-rate scale 1: pure
// replication, so every trainee must reproduce the width-1 run bit for
// bit.
func unitScales(width int) []float32 {
	s := make([]float32, width)
	for i := range s {
		s[i] = 1
	}
	return s
}

// runTrain trains one workload for o.Warmup untimed plus steps timed
// global steps at the given replica count and fused width on the
// process-wide pool — warmup compiles every replica's forward/backward
// and apply plans, so the reported timings are steady-state, as in
// every other experiment.
func runTrain(name string, o Options, replicas, width, chunks, intraop, steps int) (trainRun, error) {
	tr, err := dist.New(name, dist.Options{
		Replicas:       replicas,
		Chunks:         chunks,
		Preset:         o.Preset,
		Seed:           o.Seed,
		LRScales:       unitScales(width),
		IntraOpWorkers: intraop,
	})
	if err != nil {
		return trainRun{}, err
	}
	defer tr.Close()
	if _, err := tr.Train(o.Warmup); err != nil {
		return trainRun{}, err
	}
	tr.ResetTiming()
	if _, err := tr.Train(steps); err != nil {
		return trainRun{}, err
	}
	out := trainRun{
		timing: tr.Timing(),
		batch:  tr.Partition().GlobalBatch,
		chunks: tr.Partition().Chunks,
	}
	for k := 0; k < width; k++ {
		out.losses = append(out.losses, append([]float64(nil), tr.TraineeLosses(k)...))
	}
	return out, nil
}

// sameLosses reports whether two loss trajectories are bit-identical.
func sameLosses(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TrainScaling is the training-scaling report (`fathom train`, part of
// `fathom all`): per workload, it trains the same fixed global batch
// at 1 replica and at `replicas` replicas on the shared worker pool
// and puts the achieved wall-clock speedup next to the achievable
// bound the run's own phase structure admits (profiling.TrainScaling).
// With fused > 0 it additionally trains one fused replica of that
// width and reports its trainee-step throughput against the
// sequential-standalone baseline. The ident columns live-check the
// driver's headline invariant — replica counts only repartition the
// chunk grid, and fused trainees reproduce standalone runs, so every
// loss trajectory must be bit-identical.
func TrainScaling(o Options, replicas, chunks, intraop, fused int, names []string) (Result, error) {
	o = o.withDefaults()
	if replicas < 1 {
		replicas = 1
	}
	if chunks < 1 {
		chunks = 4
	}
	if intraop < 1 {
		intraop = 1
	}
	if fused < 0 {
		fused = 0
	}
	if len(names) == 0 {
		names = core.Names()
	}
	var text, csv strings.Builder
	fmt.Fprintf(&text, "training scaling: %d steps, %d chunks/step, replicas 1 vs %d, intra-op %d",
		o.Steps, chunks, replicas, intraop)
	if fused > 0 {
		fmt.Fprintf(&text, ", fused width %d", fused)
	}
	text.WriteString("\n\n")
	fmt.Fprintf(&text, "%-10s %6s %10s %11s %11s %9s %10s %11s %8s %6s\n",
		"workload", "batch", "loss", "step/s@1", "step/s@N", "achieved", "achievable", "trainee/s@K", "fused-x", "ident")
	csv.WriteString("workload,replicas,chunks,global_batch,steps,final_loss,serial_steps_per_s,parallel_steps_per_s,achieved,achievable,bit_identical,fused_width,fused_trainee_steps_per_s,fused_speedup,fused_identical\n")
	for _, name := range names {
		name = strings.TrimSpace(name)
		base, err := runTrain(name, o, 1, 1, chunks, intraop, o.Steps)
		if err != nil {
			return Result{}, fmt.Errorf("train %s replicas=1: %w", name, err)
		}
		par, err := runTrain(name, o, replicas, 1, chunks, intraop, o.Steps)
		if err != nil {
			return Result{}, fmt.Errorf("train %s replicas=%d: %w", name, replicas, err)
		}
		ident := sameLosses(base.losses[0], par.losses[0])
		ts := profiling.TrainScaling(replicas,
			base.timing.Wall, par.timing.Wall,
			par.timing.GradSum, par.timing.GradMax, par.timing.Reduce, par.timing.Apply)
		perSec := func(steps int, wall float64) float64 {
			if wall <= 0 {
				return 0
			}
			return float64(steps) / wall
		}
		serialRate := perSec(base.timing.Steps, base.timing.Wall.Seconds())
		parRate := perSec(par.timing.Steps, par.timing.Wall.Seconds())
		final := 0.0
		if l := par.losses[0]; len(l) > 0 {
			final = l[len(l)-1]
		}

		fusedRate, fusedX := 0.0, 0.0
		fusedIdent := true
		if fused > 0 {
			fr, err := runTrain(name, o, 1, fused, chunks, intraop, o.Steps)
			if err != nil {
				return Result{}, fmt.Errorf("train %s fused=%d: %w", name, fused, err)
			}
			fusedRate = perSec(fr.timing.Steps*fused, fr.timing.Wall.Seconds())
			if serialRate > 0 {
				fusedX = fusedRate / serialRate
			}
			for _, l := range fr.losses {
				fusedIdent = fusedIdent && sameLosses(base.losses[0], l)
			}
		}

		fmt.Fprintf(&text, "%-10s %6d %10.4f %11.2f %11.2f %8.2fx %9.2fx %11.2f %7.2fx %6v\n",
			name, base.batch, final, serialRate, parRate,
			ts.Achieved, ts.Achievable, fusedRate, fusedX, ident && fusedIdent)
		fmt.Fprintf(&csv, "%s,%d,%d,%d,%d,%.6f,%.4f,%.4f,%.4f,%.4f,%v,%d,%.4f,%.4f,%v\n",
			name, replicas, chunks, base.batch, o.Steps, final,
			serialRate, parRate, ts.Achieved, ts.Achievable, ident,
			fused, fusedRate, fusedX, fusedIdent)
		if !ident {
			// The determinism harness enforces this in CI; the report
			// surfaces it rather than silently printing a broken run.
			fmt.Fprintf(&text, "  WARNING: %s loss trajectory differs across replica counts\n", name)
		}
		if !fusedIdent {
			fmt.Fprintf(&text, "  WARNING: %s fused trainee trajectory differs from the standalone run\n", name)
		}
	}
	text.WriteString("\nachieved: wall speedup over the 1-replica run of the same global batch\n")
	text.WriteString("achievable: Amdahl bound from the run's phase walls (parallel gradients, serial reduce+apply)\n")
	if fused > 0 {
		text.WriteString("trainee/s@K: fused array trainee-step throughput (K instances in one graph)\n")
		text.WriteString("fused-x: that throughput over step/s@1 — speedup vs training the K instances sequentially\n")
	}
	text.WriteString("ident: loss trajectories bit-identical across replica counts and fused trainees (the determinism contract)\n")
	title := fmt.Sprintf("Data-parallel training scaling at %d replicas", replicas)
	if fused > 0 {
		title = fmt.Sprintf("Training scaling: %d replicas data-parallel, width-%d fused", replicas, fused)
	}
	return Result{
		ID:    "train",
		Title: title,
		Text:  text.String(), CSV: csv.String(),
	}, nil
}

// TrainPhases is the training-loop phase-telemetry report
// (`fathom train -trace`): per workload it trains the same warmup +
// timed schedule as TrainScaling, then dumps the per-step
// sample/grad/reduce/apply wall times from the trainer's phase ring —
// the step-level breakdown behind the aggregate Timing sums, which is
// where stragglers, warmup cliffs, and allocator stalls show up.
// With fused > 0 the fused array's phase log follows the data-parallel
// one, so the two execution strategies' step anatomies sit side by
// side.
func TrainPhases(o Options, replicas, chunks, intraop, fused int, names []string) (Result, error) {
	o = o.withDefaults()
	if replicas < 1 {
		replicas = 1
	}
	if chunks < 1 {
		chunks = 4
	}
	if intraop < 1 {
		intraop = 1
	}
	if len(names) == 0 {
		names = core.Names()
	}
	var text strings.Builder
	fmt.Fprintf(&text, "training phase telemetry: %d warmup + %d timed steps, %d chunks/step, %d replicas, intra-op %d\n",
		o.Warmup, o.Steps, chunks, replicas, intraop)
	text.WriteString("phases: sample (input synthesis, included in grad), grad (forward+backward run), reduce (gradient averaging), apply (optimizer)\n")
	type phaseRun struct {
		label           string
		replicas, width int
	}
	runs := []phaseRun{{fmt.Sprintf("dist, %d replicas", replicas), replicas, 1}}
	if fused > 0 {
		runs = append(runs, phaseRun{fmt.Sprintf("fused, width %d", fused), 1, fused})
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		for _, run := range runs {
			tr, err := dist.New(name, dist.Options{
				Replicas: run.replicas, LRScales: unitScales(run.width), Chunks: chunks,
				Preset: o.Preset, Seed: o.Seed, IntraOpWorkers: intraop,
			})
			if err != nil {
				return Result{}, fmt.Errorf("train -trace %s (%s): %w", name, run.label, err)
			}
			_, err = tr.Train(o.Warmup + o.Steps)
			phases := tr.PhaseLog()
			tr.Close()
			if err != nil {
				return Result{}, fmt.Errorf("train -trace %s (%s): %w", name, run.label, err)
			}
			fmt.Fprintf(&text, "\n%s (%s):\n", name, run.label)
			telemetry.WritePhaseTable(&text, phases)
		}
	}
	return Result{
		ID:    "train-phases",
		Title: fmt.Sprintf("Training-loop phase telemetry at %d replicas", replicas),
		Text:  text.String(),
	}, nil
}
