// Cross-workload determinism harness: the executable contract behind
// the parallel inter-op scheduler. Every registered workload's train +
// infer trajectory must be bit-identical (a) across two serial runs
// under the same WithSeed — the replay contract — and (b) between
// serial execution and a 4-wide inter-op schedule — the scheduler
// contract. Any future scheduler change that perturbs RNG order,
// variable update order, or arena buffer lifetimes fails this test
// for at least one of the nine workloads.
package models_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/tensor"

	_ "repro/internal/models/all"
)

// fingerprint captures everything observable about a short workload
// trajectory: per-step training losses, the named inference outputs of
// a sampled batch (when the workload serves requests via Sampler), and
// the final bits of every graph variable.
type fingerprint struct {
	losses []float64
	infer  map[string][]float32
	vars   map[string][]float32
}

// workloadFingerprint builds a fresh instance of the workload and
// drives it through trainSteps optimizer updates and two self-feeding
// inference steps on a session of the given intra-op × inter-op
// widths, then snapshots the trajectory. Model config and session
// seed are fixed, so two calls differ only in scheduler widths.
func workloadFingerprint(t *testing.T, name string, intraop, interop, trainSteps int) fingerprint {
	t.Helper()
	m, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	s := runtime.NewSession(m.Graph(),
		runtime.WithSeed(11),
		runtime.WithIntraOpWorkers(intraop),
		runtime.WithInterOpWorkers(interop),
	)
	defer s.Close()
	fp := fingerprint{infer: map[string][]float32{}, vars: map[string][]float32{}}
	tr, ok := m.(core.Trainer)
	if !ok {
		t.Fatalf("%s does not implement core.Trainer", name)
	}
	for i := 0; i < trainSteps; i++ {
		loss, err := tr.TrainStep(s)
		if err != nil {
			t.Fatalf("train step %d: %v", i, err)
		}
		fp.losses = append(fp.losses, loss)
	}
	// Self-feeding inference advances the same state (emulator, data
	// cursor, RNG) either path exercises.
	for i := 0; i < 2; i++ {
		if err := core.Step(m, s, core.ModeInference); err != nil {
			t.Fatalf("inference step %d: %v", i, err)
		}
	}
	// Request-driven inference fetches, when the workload samples
	// batches (deepq drives its emulator instead).
	if smp, ok := m.(core.Sampler); ok {
		inf := m.(core.Inferencer)
		outs, err := inf.Infer(s, smp.Sample())
		if err != nil {
			t.Fatalf("infer: %v", err)
		}
		for name, v := range outs {
			fp.infer[name] = append([]float32(nil), v.Data()...)
		}
	}
	for _, v := range m.Graph().Variables() {
		fp.vars[v.Name()] = append([]float32(nil), v.Value().Data()...)
	}
	return fp
}

func sameFloat32s(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// compareFingerprints asserts bitwise equality of two trajectories.
func compareFingerprints(t *testing.T, label string, a, b fingerprint) {
	t.Helper()
	for i := range a.losses {
		if a.losses[i] != b.losses[i] {
			t.Fatalf("%s: step-%d loss %v != %v", label, i, a.losses[i], b.losses[i])
		}
	}
	if len(a.infer) != len(b.infer) {
		t.Fatalf("%s: inference outputs %d != %d", label, len(a.infer), len(b.infer))
	}
	names := make([]string, 0, len(a.infer))
	for n := range a.infer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if i, ok := sameFloat32s(a.infer[n], b.infer[n]); !ok {
			t.Fatalf("%s: inference output %q differs at element %d", label, n, i)
		}
	}
	if len(a.vars) != len(b.vars) {
		t.Fatalf("%s: variable count %d != %d", label, len(a.vars), len(b.vars))
	}
	for n, av := range a.vars {
		if i, ok := sameFloat32s(av, b.vars[n]); !ok {
			t.Fatalf("%s: variable %q differs at element %d", label, n, i)
		}
	}
}

// TestCrossWorkloadDeterminism is the suite-wide determinism harness:
// for all nine workloads, serial replay under WithSeed is bit-exact,
// and every intra-op × inter-op width combination — real parallel
// kernel chunks crossed with the parallel plan scheduler, all drawing
// helpers from the shared worker pool — is bit-identical to serial.
func TestCrossWorkloadDeterminism(t *testing.T) {
	const trainSteps = 3
	widths := []struct {
		label          string
		intra, interop int
	}{
		{"intraop 4 vs serial", 4, 1},
		{"interop 4 vs serial", 1, 4},
		{"intraop 4 × interop 4 vs serial", 4, 4},
	}
	for _, name := range allNames {
		name := name
		t.Run(name, func(t *testing.T) {
			base := workloadFingerprint(t, name, 1, 1, trainSteps)
			replay := workloadFingerprint(t, name, 1, 1, trainSteps)
			compareFingerprints(t, "serial replay (WithSeed)", base, replay)
			for _, w := range widths {
				par := workloadFingerprint(t, name, w.intra, w.interop, trainSteps)
				compareFingerprints(t, w.label, base, par)
			}
		})
	}
}

// distFingerprint trains `name` data-parallel for trainSteps global
// steps at the given replica count and intra-op width over a fixed
// chunk grid, on a scoped shared pool, and snapshots the trajectory:
// per-step global losses and the final bits of every replica-0
// variable (every other replica is bitwise identical to it —
// TestReplicasStayInLockstep in internal/dist pins that directly).
func distFingerprint(t *testing.T, name string, replicas, intraop, interop, trainSteps int) fingerprint {
	t.Helper()
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New(name, dist.Options{
		Replicas:       replicas,
		Chunks:         4,
		Preset:         core.PresetTiny,
		Seed:           3,
		IntraOpWorkers: intraop,
		InterOpWorkers: interop,
		Pool:           pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fp := fingerprint{infer: map[string][]float32{}, vars: map[string][]float32{}}
	losses, err := tr.Train(trainSteps)
	if err != nil {
		t.Fatal(err)
	}
	fp.losses = losses
	for _, v := range tr.Replica(0).Graph().Variables() {
		fp.vars[v.Name()] = append([]float32(nil), v.Value().Data()...)
	}
	return fp
}

// TestDataParallelDeterminism extends the harness to the data-parallel
// training subsystem (internal/dist): for all ten workloads, a fixed
// global batch (the 4-chunk grid), chunk count and seed yield
// bit-identical loss trajectories and final variables across replica
// counts {1, 2, 4} and across replica × intra-op width combinations —
// the replica count changes only the partition of the chunk grid,
// never the math.
func TestDataParallelDeterminism(t *testing.T) {
	const trainSteps = 2
	widths := []struct {
		label                      string
		replicas, intraop, interop int
	}{
		{"replicas 2", 2, 1, 1},
		{"replicas 4", 4, 1, 1},
		{"replicas 1 × intraop 4", 1, 4, 1},
		{"replicas 2 × intraop 4", 2, 4, 1},
		{"replicas 4 × intraop 4", 4, 4, 1},
		{"replicas 2 × interop 4", 2, 1, 4},
	}
	for _, name := range allNames {
		name := name
		t.Run(name, func(t *testing.T) {
			base := distFingerprint(t, name, 1, 1, 1, trainSteps)
			replay := distFingerprint(t, name, 1, 1, 1, trainSteps)
			compareFingerprints(t, "dist serial replay", base, replay)
			for i, w := range widths {
				if testing.Short() && i >= 2 {
					break // -short keeps the replica axis, trims the matrix tail
				}
				par := distFingerprint(t, name, w.replicas, w.intraop, w.interop, trainSteps)
				compareFingerprints(t, w.label+" vs replicas 1", base, par)
			}
		})
	}
}

// standaloneScaled fingerprints one standalone trainee at a
// learning-rate scale: a single-replica dist run over the canonical
// 4-chunk grid — the bit-exact reference a fused trainee at that scale
// must reproduce.
func standaloneScaled(t *testing.T, name string, scale float32, trainSteps int) fingerprint {
	t.Helper()
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New(name, dist.Options{
		Replicas: 1,
		Chunks:   4,
		Preset:   core.PresetTiny,
		Seed:     3,
		LRScales: []float32{scale},
		Pool:     pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fp := fingerprint{infer: map[string][]float32{}, vars: map[string][]float32{}}
	losses, err := tr.Train(trainSteps)
	if err != nil {
		t.Fatal(err)
	}
	fp.losses = losses
	for _, v := range tr.Replica(0).Graph().Variables() {
		fp.vars[v.Name()] = append([]float32(nil), v.Value().Data()...)
	}
	return fp
}

// TestFusedArrayDeterminism extends the harness to horizontally fused
// training (dist's fused replicas): for every fuseable workload, each
// trainee of a fused array — K instances stacked into one graph,
// diverging only by learning-rate scale — must reproduce its
// standalone run bit for bit, per-step losses and final parameters,
// across fusion widths K ∈ {2, 4}, fused intra-op widths {1, 4}, and
// K-wide fused arrays as 2 data-parallel replicas (K×N trainees, one
// all-reduce over the stacked parameters). deepq is excluded by
// construction: it advances out-of-graph state per step. Every row
// also runs under -short, so the race run covers the whole matrix.
func TestFusedArrayDeterminism(t *testing.T) {
	const trainSteps = 2
	scales := []float32{1, 0.5, 2, 0.25}
	widths := []struct {
		label              string
		k, replicas, intra int
	}{
		{"fused 2", 2, 1, 1},
		{"width 2 × replicas 2", 2, 2, 1},
		{"fused 4", 4, 1, 1},
		{"fused 4 × intraop 4", 4, 1, 4},
		{"width 4 × replicas 2 × intraop 4", 4, 2, 4},
	}
	for _, name := range allNames {
		if name == "deepq" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			// Standalone references, one per learning-rate scale,
			// built lazily: the widths share them.
			refs := map[float32]fingerprint{}
			ref := func(scale float32) fingerprint {
				fp, ok := refs[scale]
				if !ok {
					fp = standaloneScaled(t, name, scale, trainSteps)
					refs[scale] = fp
				}
				return fp
			}
			for _, w := range widths {
				pool := sched.New(8)
				arr, err := dist.New(name, dist.Options{
					Replicas:       w.replicas,
					LRScales:       scales[:w.k],
					Chunks:         4,
					Preset:         core.PresetTiny,
					Seed:           3,
					IntraOpWorkers: w.intra,
					Pool:           pool,
				})
				if err != nil {
					pool.Close()
					t.Fatal(err)
				}
				if _, err := arr.Train(trainSteps); err != nil {
					arr.Close()
					pool.Close()
					t.Fatal(err)
				}
				for k := 0; k < w.k; k++ {
					want := ref(scales[k])
					got := fingerprint{
						losses: arr.TraineeLosses(k),
						infer:  map[string][]float32{},
						vars:   map[string][]float32{},
					}
					params := arr.TraineeParams(k)
					for i, pn := range arr.ParamNames() {
						got.vars[pn] = append([]float32(nil), params[i].Data()...)
						// Compare trainable parameters only: the fused
						// graph shares non-trainable state.
						if _, ok := want.vars[pn]; !ok {
							t.Fatalf("%s trainee %d: parameter %q missing from standalone run", w.label, k, pn)
						}
					}
					// Fused runs have no inference leg; compare losses and
					// trainable parameters.
					trimmed := fingerprint{losses: want.losses, infer: map[string][]float32{}, vars: map[string][]float32{}}
					for pn := range got.vars {
						trimmed.vars[pn] = want.vars[pn]
					}
					compareFingerprints(t, w.label+" trainee vs standalone", got, trimmed)
				}
				arr.Close()
				pool.Close()
			}
		})
	}
}

// TestDeterminismHarnessGuardedByArena runs one representative wide
// workload (memnet: parallel hops) under the arena's buffer-lifetime
// assertion hook at inter-op width 4.
func TestDeterminismHarnessGuardedByArena(t *testing.T) {
	m, err := core.New("memnet")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	s := runtime.NewSession(m.Graph(), runtime.WithSeed(11), runtime.WithInterOpWorkers(4))
	guard := tensor.NewBufferGuard()
	s.Arena().SetGuard(guard)
	tr := m.(core.Trainer)
	for i := 0; i < 3; i++ {
		if _, err := tr.TrainStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if v := guard.Violations(); len(v) != 0 {
		t.Fatalf("arena guard violations during memnet training: %v", v)
	}
}
