package dist_test

import (
	"bytes"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sched"

	_ "repro/internal/models/all"
)

// snapshot captures a trainer's observable trajectory: per-step global
// losses plus the final bits of every replica-0 variable.
type snapshot struct {
	losses []float64
	vars   map[string][]float32
}

func snap(t *dist.Trainer) snapshot {
	s := snapshot{losses: append([]float64(nil), t.Losses()...), vars: map[string][]float32{}}
	for _, v := range t.Replica(0).Graph().Variables() {
		s.vars[v.Name()] = append([]float32(nil), v.Value().Data()...)
	}
	return s
}

func compareSnapshots(t *testing.T, label string, a, b snapshot) {
	t.Helper()
	if len(a.losses) != len(b.losses) {
		t.Fatalf("%s: %d losses vs %d", label, len(a.losses), len(b.losses))
	}
	for i := range a.losses {
		if a.losses[i] != b.losses[i] {
			t.Fatalf("%s: step-%d loss %v != %v", label, i, a.losses[i], b.losses[i])
		}
	}
	if len(a.vars) != len(b.vars) {
		t.Fatalf("%s: variable count %d != %d", label, len(a.vars), len(b.vars))
	}
	for n, av := range a.vars {
		bv, ok := b.vars[n]
		if !ok {
			t.Fatalf("%s: variable %q missing", label, n)
		}
		if len(av) != len(bv) {
			t.Fatalf("%s: variable %q size %d != %d", label, n, len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s: variable %q differs at element %d: %v != %v", label, n, i, av[i], bv[i])
			}
		}
	}
}

// run trains `name` for steps global steps at the given replica count
// and session widths on a scoped pool, returning the trajectory.
func run(t *testing.T, name string, replicas, intraop, steps int) snapshot {
	t.Helper()
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New(name, dist.Options{
		Replicas:       replicas,
		Chunks:         4,
		Preset:         core.PresetTiny,
		Seed:           7,
		IntraOpWorkers: intraop,
		Pool:           pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Train(steps); err != nil {
		t.Fatal(err)
	}
	return snap(tr)
}

// TestReplicaCountInvariance is the subsystem's headline invariant on
// one representative stochastic workload (autoenc: VAE sampling in the
// forward pass): fixed global batch, chunk grid and seed ⇒
// bit-identical losses and final variables across replica counts and
// across replica × intra-op widths. The full ten-workload sweep lives
// in the cross-workload determinism harness
// (internal/models/determinism_test.go).
func TestReplicaCountInvariance(t *testing.T) {
	base := run(t, "autoenc", 1, 1, 3)
	for _, cfg := range []struct {
		label             string
		replicas, intraop int
	}{
		{"replicas 2", 2, 1},
		{"replicas 4", 4, 1},
		{"replicas 2 × intraop 4", 2, 4},
	} {
		got := run(t, "autoenc", cfg.replicas, cfg.intraop, 3)
		compareSnapshots(t, cfg.label+" vs replicas 1", base, got)
	}
}

// TestReplicasStayInLockstep: after training, every replica's
// variables are bitwise identical to replica 0's — the all-reduce +
// identical-apply contract, observed directly.
func TestReplicasStayInLockstep(t *testing.T) {
	pool := sched.New(8)
	defer pool.Close()
	tr, err := dist.New("memnet", dist.Options{Replicas: 4, Chunks: 4, Preset: core.PresetTiny, Seed: 5, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Train(3); err != nil {
		t.Fatal(err)
	}
	ref := tr.Replica(0).Graph().Variables()
	for r := 1; r < 4; r++ {
		vars := tr.Replica(r).Graph().Variables()
		if len(vars) != len(ref) {
			t.Fatalf("replica %d has %d variables, replica 0 has %d", r, len(vars), len(ref))
		}
		for i, v := range vars {
			a, b := ref[i].Value().Data(), v.Value().Data()
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("replica %d variable %q differs at %d", r, v.Name(), j)
				}
			}
		}
	}
}

// TestCheckpointReplicaInterop is the checkpoint interoperability
// contract: save under 2 replicas, resume under 1, 2 and 4 — the
// continuations must be bit-identical to each other and to the
// uninterrupted donor.
func TestCheckpointReplicaInterop(t *testing.T) {
	const warm, resume = 2, 3
	pool := sched.New(8)
	defer pool.Close()
	opts := func(replicas int) dist.Options {
		return dist.Options{Replicas: replicas, Chunks: 4, Preset: core.PresetTiny, Seed: 9, Pool: pool}
	}

	donor, err := dist.New("memnet", opts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	if _, err := donor.Train(warm); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := donor.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// The donor continues uninterrupted: the reference continuation.
	if _, err := donor.Train(resume); err != nil {
		t.Fatal(err)
	}
	want := snap(donor)
	want.losses = want.losses[warm:]

	for _, replicas := range []int{1, 2, 4} {
		tr, err := dist.New("memnet", opts(replicas))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got := tr.Steps(); got != warm {
			t.Fatalf("resumed step counter = %d, want %d", got, warm)
		}
		if _, err := tr.Train(resume); err != nil {
			t.Fatal(err)
		}
		compareSnapshots(t, "resume with 2→"+string(rune('0'+replicas))+" replicas", want, snap(tr))
		tr.Close()
	}

	// Only the replica count may change across a resume: a different
	// chunk grid, seed or learning-rate scale would silently diverge,
	// and a different width would not fit the stacked variables, so
	// LoadCheckpoint refuses them.
	for _, bad := range []dist.Options{
		{Replicas: 2, Chunks: 8, Preset: core.PresetTiny, Seed: 9, Pool: pool},
		{Replicas: 2, Chunks: 4, Preset: core.PresetTiny, Seed: 10, Pool: pool},
		{Replicas: 2, Chunks: 4, Preset: core.PresetTiny, Seed: 9, LRScales: []float32{1, 1}, Pool: pool},
		{Replicas: 2, Chunks: 4, Preset: core.PresetTiny, Seed: 9, LRScales: []float32{0.5}, Pool: pool},
	} {
		tr, err := dist.New("memnet", bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err == nil {
			t.Fatalf("LoadCheckpoint accepted mismatched stream coordinates %+v", bad)
		}
		tr.Close()
	}
}

// TestTrainerDegradesOnExhaustedPool: a pool that never lends a worker
// forces every replica onto the caller — training still completes with
// identical results (caller-participates-first, degrade-to-serial).
func TestTrainerDegradesOnExhaustedPool(t *testing.T) {
	want := run(t, "autoenc", 2, 1, 2)
	starved := sched.New(0)
	defer starved.Close()
	tr, err := dist.New("autoenc", dist.Options{Replicas: 2, Chunks: 4, Preset: core.PresetTiny, Seed: 7, Pool: starved})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Train(2); err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, "starved pool vs 8-worker pool", want, snap(tr))
}

// TestTrainerShutdownReleasesGoroutines extends the suite's
// goroutine-leak gate to trainer shutdown: training with wide
// replica × intra-op settings must return the process to baseline +
// pool size after Close, and never exceed it while running.
func TestTrainerShutdownReleasesGoroutines(t *testing.T) {
	base := goruntime.NumGoroutine()
	pool := sched.New(4)
	tr, err := dist.New("autoenc", dist.Options{Replicas: 4, Chunks: 4, Preset: core.PresetTiny, Seed: 3, IntraOpWorkers: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(2); err != nil {
		t.Fatal(err)
	}
	// Execution goroutines are bounded by the pool while training.
	if got := goruntime.NumGoroutine(); got > base+pool.Size()+1 {
		t.Fatalf("goroutines while training = %d, want <= base %d + pool %d", got, base, pool.Size())
	}
	if err := tr.SaveCheckpoint(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close() // idempotent
	if _, err := tr.Step(); err != dist.ErrClosed {
		t.Fatalf("Step after Close = %v, want ErrClosed", err)
	}
	pool.Close()
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > base {
		t.Fatalf("goroutines after shutdown = %d, want <= baseline %d", got, base)
	}
}

// TestTrainerOptionValidation: misconfigured partitions and unknown
// workloads fail loudly at construction.
func TestTrainerOptionValidation(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	if _, err := dist.New("autoenc", dist.Options{Replicas: 3, Chunks: 4, Pool: pool}); err == nil {
		t.Fatal("want error: replicas do not divide chunks")
	}
	if _, err := dist.New("autoenc", dist.Options{Replicas: 2, Chunks: 4, GlobalBatch: 6, Pool: pool}); err == nil {
		t.Fatal("want error: chunks do not divide global batch")
	}
	if _, err := dist.New("nope", dist.Options{Pool: pool}); err == nil {
		t.Fatal("want error: unknown workload")
	}
}
