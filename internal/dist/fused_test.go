package dist_test

import (
	"bytes"
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The fused replica kind's contract, on top of dist_test.go's: option
// validation, the equal-scale self-consistency of fused trainees,
// checkpoint resume at every width, and — run with -race — the
// mixed-tenancy contract with a serving engine on one bounded pool.
// The trainee-vs-standalone bit-identity contract lives in the
// suite-wide harness (internal/models/determinism_test.go).

func TestFusedOptionValidation(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	if _, err := dist.New("autoenc", dist.Options{Chunks: 3, GlobalBatch: 8, LRScales: []float32{1, 1}, Pool: pool}); err == nil {
		t.Fatal("chunks not dividing global batch must error")
	}
	if _, err := dist.New("nosuchmodel", dist.Options{LRScales: []float32{1, 1}, Pool: pool}); err == nil {
		t.Fatal("unknown workload must error")
	}
	// deepq advances out-of-graph state per step (target-network sync);
	// its per-instance state has no slice in a fused graph, so it is
	// refused at width 2 and trains at width 1.
	if _, err := dist.New("deepq", dist.Options{LRScales: []float32{1, 1}, Preset: core.PresetTiny, Pool: pool}); err == nil {
		t.Fatal("step-listener workload must be rejected at width 2")
	}
	tr, err := dist.New("deepq", dist.Options{LRScales: []float32{1}, Preset: core.PresetTiny, Pool: pool})
	if err != nil {
		t.Fatalf("deepq at width 1: %v", err)
	}
	defer tr.Close()
	if _, err := tr.Step(); err != nil {
		t.Fatalf("deepq step at width 1: %v", err)
	}
}

func TestFusedClosedArrayRefusesSteps(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	tr, err := dist.New("autoenc", dist.Options{LRScales: []float32{1, 1}, Preset: core.PresetTiny, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close() // idempotent
	if _, err := tr.Step(); err != dist.ErrClosed {
		t.Fatalf("Step after Close = %v, want ErrClosed", err)
	}
}

// TestFusedEqualScalesStayInLockstep: trainees that differ in nothing
// (same seed, same data, same learning rate) must remain bitwise
// identical through fused training — the in-package sanity slice of
// the determinism contract.
func TestFusedEqualScalesStayInLockstep(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	tr, err := dist.New("memnet", dist.Options{LRScales: []float32{1, 1, 1}, Preset: core.PresetTiny, Seed: 7, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Train(2); err != nil {
		t.Fatal(err)
	}
	base := tr.TraineeParams(0)
	for k := 1; k < tr.Width(); k++ {
		for step, l := range tr.TraineeLosses(k) {
			if l != tr.Losses()[step] {
				t.Fatalf("step %d: trainee %d loss %v != trainee 0 loss %v", step, k, l, tr.Losses()[step])
			}
		}
		pk := tr.TraineeParams(k)
		for i, name := range tr.ParamNames() {
			a, b := base[i].Data(), pk[i].Data()
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("trainee %d parameter %q differs at element %d", k, name, j)
				}
			}
		}
	}
}

// TestFusedArrayCheckpointResume pins the checkpoint contract at every
// width: save a trainer mid-run, load it into a fresh one, and the
// continuation is bit-identical to never having stopped — per-step
// losses and final parameters of every trainee. This only holds
// because the optimizer accumulators (velocity, RMS statistic, Adam
// moments and step counter) are "<var>/slot/<name>" graph variables
// the checkpoint captures, not hidden op state, and because the
// resumed step counter keys both the per-(step, chunk) data seeds and
// Adam's bias correction. The two workloads cover both slot shapes —
// attention trains with Momentum (velocity), autoenc with Adam
// (moments plus the shape-{1} step counter).
func TestFusedArrayCheckpointResume(t *testing.T) {
	pool := sched.New(8)
	defer pool.Close()
	const pre, post = 3, 3
	for _, name := range []string{"attention", "autoenc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, scales := range [][]float32{{1}, {1, 0.5}} {
				scales := scales
				t.Run(fmt.Sprintf("width%d", len(scales)), func(t *testing.T) {
					newTrainer := func() *dist.Trainer {
						tr, err := dist.New(name, dist.Options{LRScales: scales, Preset: core.PresetTiny, Seed: 11, Pool: pool})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(tr.Close)
						return tr
					}

					// Reference: pre+post uninterrupted steps.
					ref := newTrainer()
					if _, err := ref.Train(pre + post); err != nil {
						t.Fatal(err)
					}

					// Interrupted run: pre steps, checkpoint, discard.
					src := newTrainer()
					if _, err := src.Train(pre); err != nil {
						t.Fatal(err)
					}
					var ckpt bytes.Buffer
					if err := src.SaveCheckpoint(&ckpt); err != nil {
						t.Fatal(err)
					}
					src.Close()

					// Fresh trainer, restored mid-trajectory, trained to the end.
					resumed := newTrainer()
					if err := resumed.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
						t.Fatal(err)
					}
					if got := resumed.Steps(); got != pre {
						t.Fatalf("resumed step counter %d, want %d", got, pre)
					}
					if _, err := resumed.Train(post); err != nil {
						t.Fatal(err)
					}

					for k := range scales {
						refTail := ref.TraineeLosses(k)[pre:]
						resTail := resumed.TraineeLosses(k)
						if len(resTail) != post {
							t.Fatalf("trainee %d: resumed %d losses, want %d", k, len(resTail), post)
						}
						for i := range refTail {
							if refTail[i] != resTail[i] {
								t.Errorf("trainee %d step %d: resumed loss %v != uninterrupted %v",
									k, pre+i, resTail[i], refTail[i])
							}
						}
						refP, resP := ref.TraineeParams(k), resumed.TraineeParams(k)
						for i := range refP {
							if d := tensor.MaxAbsDiff(refP[i], resP[i]); d != 0 {
								t.Errorf("trainee %d param %s: resumed differs (max |Δ| %g)",
									k, ref.ParamNames()[i], d)
							}
						}
					}
				})
			}
		})
	}
}

// exampleFrom squeezes one sampled batch of a batch-capacity-1 model
// into a single engine request (dropping each input's length-1 batch
// axis is a pure reshape).
func exampleFrom(t *testing.T, m core.Model) map[string]*tensor.Tensor {
	t.Helper()
	sig := m.Signature(core.ModeInference)
	if sig.BatchCapacity() != 1 {
		t.Fatalf("want batch capacity 1, got %d", sig.BatchCapacity())
	}
	batch := m.(core.Sampler).Sample()
	ex := map[string]*tensor.Tensor{}
	for _, in := range sig.Inputs {
		v := batch[in.Name]
		if in.BatchDim == core.BatchNone {
			ex[in.Name] = v
			continue
		}
		shp := append([]int(nil), v.Shape()...)
		shp = append(shp[:in.BatchDim], shp[in.BatchDim+1:]...)
		ex[in.Name] = tensor.FromSlice(v.Data(), shp...)
	}
	return ex
}

// TestMixedTenantsShareOnePool is the mixed-tenancy contract (run with
// -race): a serving engine and a fused trainer draw helpers from the
// same bounded pool under adaptive lease grants. Both sides must make
// progress — neither the engine's sessions nor the fused session may
// starve the other into deadlock — the engine's /stats must report
// both tenants, and after shutdown the only goroutines left are the
// pool's own bounded workers.
func TestMixedTenantsShareOnePool(t *testing.T) {
	pool := sched.New(4)
	defer pool.Close()
	base := goruntime.NumGoroutine()

	m, err := core.New("memnet")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3, Batch: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(m, serve.Options{
		Sessions: 2, MaxBatch: 1, MaxDelay: 100 * time.Microsecond,
		InterOpWorkers: 2, IntraOpWorkers: 2, WorkerPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dist.New("memnet", dist.Options{
		LRScales: []float32{1, 0.5}, Preset: core.PresetTiny,
		Seed: 3, IntraOpWorkers: 2, InterOpWorkers: 2, Pool: pool,
	})
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	ex := exampleFrom(t, m)

	const (
		nRequests = 24
		nSteps    = 4
	)
	var served, trained int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < nRequests; i++ {
			if _, err := e.Infer(context.Background(), ex); err != nil {
				t.Errorf("inference under mixed tenancy: %v", err)
				return
			}
			served++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < nSteps; i++ {
			if _, err := tr.Step(); err != nil {
				t.Errorf("fused step under mixed tenancy: %v", err)
				return
			}
			trained++
		}
	}()
	wg.Wait()
	if served == 0 || trained == 0 {
		t.Fatalf("goodput: served %d trained %d; both tenants must progress", served, trained)
	}

	// Both tenants visible in the per-tenant lease report while alive.
	tenants := map[string]bool{}
	for _, ts := range e.Stats().Tenants {
		tenants[ts.Name] = true
	}
	if !tenants["engine/memnet"] || !tenants["dist/memnet"] {
		t.Fatalf("stats tenants = %v, want engine/memnet and dist/memnet", tenants)
	}

	tr.Close()
	e.Close()
	// Everything tenant-owned is gone; at most the pool's persistent
	// workers (plus test-runtime slack) remain.
	deadline := time.Now().Add(3 * time.Second)
	for goruntime.NumGoroutine() > base+pool.Size()+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > base+pool.Size()+1 {
		t.Fatalf("goroutines %d after mixed-tenant shutdown (baseline %d, pool %d): leak",
			got, base, pool.Size())
	}
}
