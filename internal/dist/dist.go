// Package dist is the suite's training step driver: N model replicas
// of one workload, each with its own graph and session, trained in
// lockstep over shards of a synthetic dataset with a deterministic
// gradient all-reduce. A replica comes in two kinds. A plain replica
// runs the workload's own graph. A fused replica runs a horizontally
// fused graph training K instances at once, after HFTA (Wang et al.,
// MLSys 2021); K is len(Options.LRScales). N fused replicas train K
// trainees each, with one all-reduce over the stacked parameters.
//
// # Architecture
//
// A global training step consumes a fixed global batch, decomposed
// into a canonical grid of micro-batches ("chunks", see
// dataset.Partition). Each replica owns a contiguous ascending range
// of the chunk grid. A step has three phases:
//
//  1. Gradients: every replica runs, for each owned chunk, one
//     forward+backward of its training graph — fetching the loss and
//     the raw parameter gradients, without touching any variable. The
//     chunk's data comes from core.TrainSampler keyed by
//     dataset.ChunkSeed(seed, step, chunk), and the session RNG is
//     reseeded with the same chunk seed, so a chunk's batch AND its
//     stochastic ops (dropout masks, VAE sampling) are pure functions
//     of the chunk coordinates.
//  2. All-reduce: for every parameter, the per-chunk gradients combine
//     in fixed ascending-replica, ascending-chunk float32 order —
//     replica ranges are contiguous and ascending, so this is exactly
//     ascending order over the global chunk grid — then scale by
//     1/chunks (the gradient of the global-batch mean loss). The work
//     distributes as element ranges (large parameters split across
//     several, see reduceRangeElems) reducing independently, possibly
//     on different shared-pool workers; every element's combine order
//     is fixed regardless of the split or placement.
//  3. Apply: every replica feeds the same combined tensors into the
//     fed-gradient placeholders of its nn.TrainPlan.ApplyPath and
//     fetches the same apply node, taking one identical optimizer
//     step. Replica variable state therefore stays bitwise identical
//     forever.
//
// # Fused replicas
//
// The fused graph (transform) stacks the K trainees' parameters,
// activations and gradients along a new leading axis. Shared inputs
// and everything computed purely from them execute once for all
// trainees, untransposed products of two stacked operands become one
// BatchMatMul, and the optimizer apply-ops take one learning rate per
// trainee. Trainees share the seed, data and chunk grid and differ
// only through their learning-rate scales. Every fused node either
// runs the standalone kernel per trainee on contiguous slices or is
// genuinely shared (one dropout mask, one RNG draw), so trainee k's
// losses and parameters are bit-identical to a width-1 run at scale
// LRScales[k]. Workloads that advance out-of-graph state per step
// (StepListener) have no slice in a fused graph and train at width 1
// only.
//
// # Determinism contract
//
// For a fixed global batch, chunk count, seed and learning-rate
// scales, the training trajectory — per-step losses and every
// variable's final bits — is identical for ANY replica count dividing
// the chunk count, and for any intra-op/inter-op session widths: the
// replica count changes only which session executes a chunk, never
// the chunk's math, data, RNG stream, or the combine order. The
// cross-workload harness (internal/models/determinism_test.go) pins
// this for all ten workloads across replicas {1,2,4} × intra-op {1,4},
// and every fused trainee against its width-1 run.
//
// # Scheduling
//
// Replicas execute concurrently as clients of the shared worker pool
// (internal/sched): the trainer leases replicas-1 helpers, offers
// replica tasks non-blockingly, runs replica 0 itself, and absorbs any
// replica the pool declined — caller-participates-first, so pool
// exhaustion degrades to serial execution, never deadlock, and total
// execution goroutines stay bounded by the pool size (replica sessions
// lease their own intra-op/inter-op helpers under the same rules).
package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/models/nn"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// phaseRingSize bounds the per-step phase telemetry ring: enough for a
// bench run's whole trajectory, constant memory forever after.
const phaseRingSize = 256

// ErrClosed is returned by Step after Close.
var ErrClosed = errors.New("dist: trainer closed")

// Trainable is what a workload must implement to train here: the
// standard model interface, a seed-keyed batch sampler, and the
// gradient/update fetch surface nn.BuildTraining records. All ten
// suite workloads qualify.
type Trainable interface {
	core.Model
	core.TrainSampler
	TrainPlan() *nn.TrainPlan
}

// StepListener is an optional workload hook: OnTrainStep(step) runs on
// every replica after global step `step`'s combined update has been
// applied, for state that must advance in lockstep outside the graph —
// deepq syncs its target network here. Implementations may only
// depend on replica-local state that is itself in lockstep. Such a
// workload trains at width 1 only.
type StepListener interface {
	OnTrainStep(step int)
}

// Options configures a Trainer.
type Options struct {
	// Replicas is the number of model replicas (default 1). It must
	// divide Chunks.
	Replicas int
	// Chunks is the canonical micro-batch grid per global step
	// (default 4). It — not Replicas — fixes the gradient combine
	// order, so runs with equal Chunks are bit-identical at every
	// replica count dividing it.
	Chunks int
	// GlobalBatch is the examples per global step; Chunks must divide
	// it. 0 derives it as Chunks × the workload's preset batch (each
	// chunk is one preset minibatch).
	GlobalBatch int
	// Preset selects the workload scale (default ref).
	Preset core.Preset
	// Seed keys model initialization and the per-(step, chunk) data
	// and RNG streams (default 1).
	Seed int64
	// LRScales holds one learning-rate scale per trainee, and so sets
	// the fusion width K = len(LRScales) (nil means one trainee at
	// scale 1). Trainee k steps at the workload recipe's base rate ×
	// LRScales[k], a single float32 product. Width 1 trains the
	// workload's own graph; width K > 1 trains a fused graph.
	LRScales []float32
	// IntraOpWorkers is each replica session's real intra-op width
	// (default 1); InterOpWorkers its inter-op scheduler width.
	// Neither affects result bits.
	IntraOpWorkers int
	InterOpWorkers int
	// Pool is the shared worker pool replicas (and their sessions)
	// draw helpers from (default sched.Default()); tests use scoped
	// pools.
	Pool *sched.Pool
}

// replica is one model copy and its execution state.
type replica struct {
	model   Trainable
	graph   *replicaGraph
	sess    *runtime.Session
	fetches []*graph.Node // loss + raw grads, in TrainPlan order

	applyNode  *graph.Node
	applyFeeds runtime.Feeds

	lo, hi int // owned chunk range [lo, hi)

	feeds      runtime.Feeds      // per-chunk training feeds, reused
	chunkLoss  []float64          // [owned chunk × width + trainee]
	chunkGrads [][]*tensor.Tensor // [owned chunk][param]

	gradWall   time.Duration // grad phase wall of the current step
	sampleWall time.Duration // TrainSample share of gradWall
	err        error
}

// Timing accumulates the trainer's phase walls, the raw material of
// the achieved-vs-achievable scaling report (profiling.TrainScaling):
// the gradient phase parallelizes across replicas, while the reduce
// and apply phases bound the speedup Amdahl-style.
type Timing struct {
	Steps int
	// GradSum is the summed gradient-phase wall across replicas and
	// steps (the serial work); GradMax sums each step's slowest
	// replica (the parallel phase's wall).
	GradSum, GradMax time.Duration
	// Reduce and Apply are the all-reduce and update phase walls.
	Reduce, Apply time.Duration
	// Wall is the total step wall.
	Wall time.Duration
}

// Trainer drives data-parallel training of one workload. It is
// confined to a single goroutine: Step, checkpointing and Close must
// not be called concurrently (internally Step fans replicas out on the
// shared pool).
type Trainer struct {
	name     string
	opts     Options
	scales   []float32 // per-trainee learning-rate scales; len is the width
	part     dataset.Partition
	pool     *sched.Pool
	lease    *sched.Lease
	replicas []*replica

	comb        []*tensor.Tensor // combined gradients, one per parameter
	reduceItems []reduceItem     // the all-reduce work list: element ranges
	step        int
	losses      [][]float64 // [trainee][step]
	timing      Timing
	phases      *telemetry.PhaseRing
	closed      bool
}

// New builds a trainer: Replicas instances of the workload, each Setup
// with an identical config (bit-identical initial variables) at the
// chunk micro-batch size, fused len(LRScales) wide when that exceeds
// one, each with its own session on the shared pool.
func New(name string, opts Options) (*Trainer, error) {
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Chunks < 1 {
		opts.Chunks = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Pool == nil {
		opts.Pool = sched.Default()
	}
	if opts.Chunks%opts.Replicas != 0 {
		return nil, fmt.Errorf("dist: replicas %d does not divide chunks %d", opts.Replicas, opts.Chunks)
	}
	scales := slices.Clone(opts.LRScales)
	if len(scales) == 0 {
		scales = []float32{1}
	}
	width := len(scales)
	chunkBatch := 0 // 0 = the workload's preset batch
	if opts.GlobalBatch > 0 {
		if opts.GlobalBatch%opts.Chunks != 0 {
			return nil, fmt.Errorf("dist: chunks %d does not divide global batch %d", opts.Chunks, opts.GlobalBatch)
		}
		chunkBatch = opts.GlobalBatch / opts.Chunks
	}
	t := &Trainer{
		name: name, opts: opts, scales: scales, pool: opts.Pool,
		losses: make([][]float64, width),
		phases: telemetry.NewPhaseRing(phaseRingSize),
	}
	// Until construction succeeds, any error return must release the
	// sessions (and their shared-pool leases) built so far.
	built := false
	defer func() {
		if !built {
			t.Close()
		}
	}()
	for r := 0; r < opts.Replicas; r++ {
		m, err := core.New(name)
		if err != nil {
			return nil, err
		}
		tr, ok := m.(Trainable)
		if !ok {
			return nil, fmt.Errorf("dist: workload %s is not trainable (wants core.TrainSampler + TrainPlan)", name)
		}
		if _, perStep := m.(StepListener); perStep && width > 1 {
			return nil, fmt.Errorf("dist: workload %s advances out-of-graph state per step and cannot fuse", name)
		}
		if err := m.Setup(core.Config{Preset: opts.Preset, Seed: opts.Seed, Batch: chunkBatch}); err != nil {
			return nil, fmt.Errorf("dist: setup %s replica %d: %w", name, r, err)
		}
		plan := tr.TrainPlan()
		if plan == nil {
			return nil, fmt.Errorf("dist: workload %s has no TrainPlan after Setup", name)
		}
		rg := plainGraph(tr)
		if width > 1 {
			if rg, err = transform(tr, width); err != nil {
				return nil, err
			}
		}
		// Build the fed-gradient apply path eagerly so every replica
		// graph has it (checkpoints then agree across replica counts).
		applyNode, gradIn, err := plan.ApplyPath(rg.params, scales)
		if err != nil {
			return nil, fmt.Errorf("dist: %s apply path: %w", name, err)
		}
		sessOpts := []runtime.Option{
			runtime.WithSeed(opts.Seed),
			runtime.WithWorkerPool(opts.Pool),
			runtime.WithLeaseName("dist/" + name),
		}
		if opts.IntraOpWorkers > 1 {
			sessOpts = append(sessOpts, runtime.WithIntraOpWorkers(opts.IntraOpWorkers))
		}
		if opts.InterOpWorkers > 1 {
			sessOpts = append(sessOpts, runtime.WithInterOpWorkers(opts.InterOpWorkers))
		}
		rep := &replica{
			model:      tr,
			graph:      rg,
			sess:       runtime.NewSession(rg.g, sessOpts...),
			fetches:    append([]*graph.Node{rg.loss}, rg.grads...),
			applyNode:  applyNode,
			applyFeeds: make(runtime.Feeds, len(gradIn)),
			feeds:      runtime.Feeds{},
		}
		if r == 0 {
			if chunkBatch == 0 {
				chunkBatch = m.Signature(core.ModeTraining).BatchCapacity()
			}
			t.comb = make([]*tensor.Tensor, len(rg.params))
			for p, pn := range rg.params {
				t.comb[p] = tensor.New(pn.Shape()...)
			}
		}
		for p, in := range gradIn {
			rep.applyFeeds[in] = t.comb[p]
		}
		t.replicas = append(t.replicas, rep)
	}
	part, err := dataset.NewPartition(chunkBatch*opts.Chunks, opts.Chunks, opts.Replicas)
	if err != nil {
		return nil, err
	}
	t.part = part
	per := part.ChunksPerReplica()
	for r, rep := range t.replicas {
		rep.lo, rep.hi = part.Range(r)
		rep.chunkLoss = make([]float64, per*width)
		rep.chunkGrads = make([][]*tensor.Tensor, per)
	}
	// The all-reduce work list: every parameter split into element
	// ranges of at most reduceRangeElems, so one very large parameter
	// (vgg's fc weights dominate the others combined) spreads over all
	// helpers instead of serializing the reduce phase behind a single
	// worker. Each range combines the same chunks in the same ascending
	// order as the whole-parameter reduce — elements are independent,
	// so the split never changes result bits.
	for p, c := range t.comb {
		n := len(c.Data())
		for lo := 0; lo < n; lo += reduceRangeElems {
			hi := lo + reduceRangeElems
			if hi > n {
				hi = n
			}
			t.reduceItems = append(t.reduceItems, reduceItem{param: p, lo: lo, hi: hi})
		}
	}
	t.lease = t.pool.LeaseNamed("dist/"+name, opts.Replicas-1)
	built = true
	return t, nil
}

// Name returns the trained workload's name.
func (t *Trainer) Name() string { return t.name }

// Partition returns the chunk grid.
func (t *Trainer) Partition() dataset.Partition { return t.part }

// Steps returns the number of applied global steps.
func (t *Trainer) Steps() int { return t.step }

// Width returns the number of trainees, len(Options.LRScales) or 1.
func (t *Trainer) Width() int { return len(t.scales) }

// Losses returns trainee 0's per-step global losses so far.
func (t *Trainer) Losses() []float64 { return t.losses[0] }

// TraineeLosses returns trainee k's per-step global losses so far.
func (t *Trainer) TraineeLosses(k int) []float64 { return t.losses[k] }

// ParamNames returns the trainable parameter names, in plan order.
func (t *Trainer) ParamNames() []string {
	var names []string
	for _, p := range t.replicas[0].model.TrainPlan().Params() {
		names = append(names, p.Name())
	}
	return names
}

// TraineeParams returns trainee k's parameter tensors, in plan order:
// views into replica 0's variables, sliced from the stacks when fused.
func (t *Trainer) TraineeParams(k int) []*tensor.Tensor {
	plain := t.replicas[0].model.TrainPlan().Params()
	out := make([]*tensor.Tensor, len(plain))
	for i, p := range t.replicas[0].graph.params {
		shape := plain[i].Shape()
		s := tensor.SizeOf(shape)
		out[i] = tensor.FromSlice(p.Value().Data()[k*s:(k+1)*s], shape...)
	}
	return out
}

// Timing returns the accumulated phase walls.
func (t *Trainer) Timing() Timing { return t.timing }

// ResetTiming zeroes the accumulated phase walls — e.g. after warmup
// steps, so steady-state scaling numbers exclude one-time plan
// compilation (losses and the step counter are untouched).
func (t *Trainer) ResetTiming() { t.timing = Timing{} }

// PhaseLog returns the retained per-step phase breakdowns (sample,
// grad, reduce, apply, wall), oldest first — the raw material of
// `fathom train -trace`. Unlike Timing's totals, each entry is one
// step, so stragglers and warmup spikes are visible individually.
func (t *Trainer) PhaseLog() []telemetry.PhaseSample { return t.phases.Samples() }

// RegisterMetrics exposes the trainer's step throughput and phase ring
// on reg, labeled trainer="dist/<name>". The reads are scrape-time and
// mutex-cheap (once per scrape, not per step). Trainers are ephemeral
// next to the process registry, so Close unregisters the series.
func (t *Trainer) RegisterMetrics(reg *telemetry.Registry) {
	labels := telemetry.Labels{"trainer": "dist/" + t.name}
	phases := t.phases
	reg.CounterFunc("fathom_train_steps_total", "Global training steps executed.", labels,
		func() uint64 { return uint64(phases.Total()) })
	reg.GaugeFunc("fathom_train_step_seconds", "Wall time of the most recent training step.", labels,
		func() float64 {
			s := phases.Samples()
			if len(s) == 0 {
				return 0
			}
			return s[len(s)-1].Wall.Seconds()
		})
}

// UnregisterMetrics removes the series RegisterMetrics added.
func (t *Trainer) UnregisterMetrics(reg *telemetry.Registry) {
	labels := telemetry.Labels{"trainer": "dist/" + t.name}
	reg.Unregister("fathom_train_steps_total", labels)
	reg.Unregister("fathom_train_step_seconds", labels)
}

// Replica exposes replica r's model (tests compare variable bits
// across trainers). At width > 1 the model's graph is the fusion
// template, which training never touches; read trained values through
// TraineeParams.
func (t *Trainer) Replica(r int) core.Model { return t.replicas[r].model }

// Close closes every replica session and releases the trainer's lease
// on the shared pool. Idempotent; Step afterwards fails with
// ErrClosed.
func (t *Trainer) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, r := range t.replicas {
		if r.sess != nil {
			r.sess.Close()
		}
	}
	if t.lease != nil {
		t.lease.Close()
	}
}

// runReplicas executes fn for every replica concurrently: replicas
// beyond the first are offered to the shared pool through the
// trainer's lease (never blocking), the caller runs replica 0 and then
// absorbs any replica the pool declined. Helper panics are re-raised
// on the caller after every replica has joined.
func (t *Trainer) runReplicas(fn func(*replica)) {
	if len(t.replicas) == 1 {
		fn(t.replicas[0])
		return
	}
	var (
		wg       sync.WaitGroup
		pmu      sync.Mutex
		pval     any
		pseen    bool
		declined []*replica
	)
	for _, r := range t.replicas[1:] {
		r := r
		wg.Add(1)
		ok := t.lease.TryRun(func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					pmu.Lock()
					if !pseen {
						pseen, pval = true, p
					}
					pmu.Unlock()
				}
			}()
			fn(r)
		})
		if !ok {
			wg.Done()
			declined = append(declined, r)
		}
	}
	defer func() {
		wg.Wait()
		if pseen {
			panic(pval)
		}
	}()
	fn(t.replicas[0])
	for _, r := range declined {
		fn(r)
	}
}

// gradPhase computes replica r's owned chunks: per chunk, reseed the
// session to the chunk seed, sample the chunk's batch, and fetch loss
// + raw gradients. No variable is touched.
func (t *Trainer) gradPhase(r *replica) {
	t0 := time.Now()
	r.err = nil
	r.sampleWall = 0
	r.sess.SetTraining(true)
	for ci, c := 0, r.lo; c < r.hi; ci, c = ci+1, c+1 {
		seed := dataset.ChunkSeed(t.opts.Seed, t.step, c)
		r.sess.Reseed(seed)
		ts := time.Now()
		sample, err := r.model.TrainSample(r.sess, seed)
		r.sampleWall += time.Since(ts)
		if err != nil {
			r.err = fmt.Errorf("dist: %s chunk %d sample: %w", t.name, c, err)
			return
		}
		clear(r.feeds)
		for name, v := range sample {
			node, ok := r.graph.inputs[name]
			if !ok {
				r.err = fmt.Errorf("dist: %s sampled unknown training input %q", t.name, name)
				return
			}
			if node != nil { // nil: outside the fused closure, read by no fetch
				r.feeds[node] = v
			}
		}
		out, err := r.sess.Run(r.fetches, r.feeds)
		if err != nil {
			r.err = fmt.Errorf("dist: %s chunk %d: %w", t.name, c, err)
			return
		}
		w, lv := len(t.scales), out[0].Data()
		for k := 0; k < w; k++ {
			r.chunkLoss[ci*w+k] = float64(lv[k])
		}
		r.chunkGrads[ci] = out[1:]
	}
	r.gradWall = time.Since(t0)
}

// chunkGrad returns chunk c's gradient for parameter p.
func (t *Trainer) chunkGrad(c, p int) *tensor.Tensor {
	r := t.replicas[t.part.Owner(c)]
	return r.chunkGrads[c-r.lo][p]
}

// reduceRangeElems bounds one all-reduce work item: parameters larger
// than this split into element ranges so a single very large parameter
// (vgg's fc weights) parallelizes across helpers instead of holding
// the whole reduce phase on one worker.
const reduceRangeElems = 1 << 15

// reduceItem is one all-reduce work item: element range [lo, hi) of
// parameter param.
type reduceItem struct{ param, lo, hi int }

// reduceRange combines elements [lo, hi) of parameter p across the
// chunk grid: the per-chunk gradients sum elementwise in ascending
// chunk order — ascending replica, ascending chunk within the replica,
// which is the same thing — then scale by 1/Chunks, yielding the
// gradient of the global-batch mean loss. The order is a constant of
// the chunk grid and elements are independent, so the result bits
// never depend on the replica count, on which worker reduces the
// range, or on how the parameter was split into ranges.
func (t *Trainer) reduceRange(p, lo, hi int) {
	out := t.comb[p].Data()[lo:hi]
	copy(out, t.chunkGrad(0, p).Data()[lo:hi])
	for c := 1; c < t.part.Chunks; c++ {
		g := t.chunkGrad(c, p).Data()[lo:hi]
		for i := range out {
			out[i] += g[i]
		}
	}
	inv := 1 / float32(t.part.Chunks)
	for i := range out {
		out[i] *= inv
	}
}

// reduce runs the all-reduce: the element-range work items are
// distributed over the caller plus lease helpers via a work-stealing
// cursor — safe because each range's combine is self-contained and
// deterministic, so placement affects only timing.
func (t *Trainer) reduce() {
	items := t.reduceItems
	if len(items) == 0 {
		return
	}
	var cursor atomic.Int64
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(items) {
				return
			}
			t.reduceRange(items[i].param, items[i].lo, items[i].hi)
		}
	}
	helpers := len(t.replicas) - 1
	if helpers > len(items)-1 {
		helpers = len(items) - 1
	}
	var wg sync.WaitGroup
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		if !t.lease.TryRun(func() { defer wg.Done(); work() }) {
			wg.Done()
			break
		}
	}
	work()
	wg.Wait()
}

// applyPhase applies the combined gradients on replica r: one fetch of
// the fed-gradient apply node, then the workload's step hook. Every
// replica executes the identical update, keeping variable state in
// lockstep.
func (t *Trainer) applyPhase(r *replica) {
	r.err = nil
	if _, err := r.sess.Run([]*graph.Node{r.applyNode}, r.applyFeeds); err != nil {
		r.err = fmt.Errorf("dist: %s apply: %w", t.name, err)
		return
	}
	if l, ok := r.model.(StepListener); ok {
		l.OnTrainStep(t.step)
	}
}

// Step executes one global training step — gradients over the chunk
// grid, deterministic all-reduce, one identical update per replica —
// and returns trainee 0's global loss: the mean of its per-chunk
// losses, combined in ascending chunk order (TraineeLosses has every
// trainee's).
func (t *Trainer) Step() (float64, error) {
	if t.closed {
		return 0, ErrClosed
	}
	t0 := time.Now()
	t.runReplicas(t.gradPhase)
	var gradMax, sampleMax time.Duration
	for _, r := range t.replicas {
		if r.err != nil {
			return 0, r.err
		}
		t.timing.GradSum += r.gradWall
		if r.gradWall > gradMax {
			gradMax = r.gradWall
		}
		if r.sampleWall > sampleMax {
			sampleMax = r.sampleWall
		}
	}
	t.timing.GradMax += gradMax

	tr := time.Now()
	t.reduce()
	reduceWall := time.Since(tr)
	t.timing.Reduce += reduceWall

	ta := time.Now()
	t.runReplicas(t.applyPhase)
	applyWall := time.Since(ta)
	t.timing.Apply += applyWall
	for _, r := range t.replicas {
		if r.err != nil {
			return 0, r.err
		}
	}

	// Global loss per trainee: ascending-chunk mean — float64
	// accumulation in a fixed order, so the loss trajectory is
	// replica-count invariant bit for bit.
	w := len(t.scales)
	for k := range t.losses {
		var loss float64
		for c := 0; c < t.part.Chunks; c++ {
			r := t.replicas[t.part.Owner(c)]
			loss += r.chunkLoss[(c-r.lo)*w+k]
		}
		t.losses[k] = append(t.losses[k], loss/float64(t.part.Chunks))
	}

	// Phase telemetry: the step's wall-time decomposition, keyed by
	// the slowest replica's sample and grad walls (the parallel
	// phases' critical path). Grad includes Sample — the per-chunk
	// loop interleaves them — so Grad−Sample is the graph-execution
	// share. Forward and backward are one fused Run here (loss and
	// gradients fetch together), hence one Grad phase.
	t.phases.Record(telemetry.PhaseSample{
		Step:   t.step,
		Sample: sampleMax,
		Grad:   gradMax,
		Reduce: reduceWall,
		Apply:  applyWall,
		Wall:   time.Since(t0),
	})

	t.step++
	t.timing.Steps++
	t.timing.Wall += time.Since(t0)
	return t.losses[0][len(t.losses[0])-1], nil
}

// Train runs n global steps, returning trainee 0's per-step losses.
func (t *Trainer) Train(n int) ([]float64, error) {
	start := len(t.losses[0])
	for i := 0; i < n; i++ {
		if _, err := t.Step(); err != nil {
			return nil, err
		}
	}
	return t.losses[0][start:], nil
}

// Checkpointing: a dist checkpoint is a small header — magic, version,
// the global step counter, the training-stream coordinates (chunk
// count, chunk batch, seed) and the trainees' learning-rate scales,
// which also fix the width — followed by a standard runtime checkpoint
// of replica 0's graph (all replicas are bitwise identical, any one
// serves). The graph's variables include the optimizer slots
// ("<var>/slot/<name>"), so a resumed run continues the exact
// optimizer trajectory. The step counter makes a resumed run continue
// the same per-(step, chunk) data and RNG streams. The stream
// coordinates and scales are validated before any variable is
// restored: a resumed run under a different chunk grid, seed or scale
// would silently diverge from the donor, and a different width would
// not fit its stacked variables. The contract deliberately leaves only
// the replica count free. Loading restores the same bytes into EVERY
// replica's graph, so a resumed trainer is in lockstep immediately — at
// any replica count dividing the chunk grid, which is what makes
// checkpoints the interop point between replica counts: save under 2
// replicas, resume under 1 or 4, and the continuations are
// bit-identical to each other and to the uninterrupted run.
const (
	checkpointMagic   = "FDST"
	checkpointVersion = 2
)

// checkpointHeader is the fixed-size header; Width learning-rate
// scales (float32) follow it.
type checkpointHeader struct {
	Magic              [4]byte
	Version            uint32
	Step               uint64
	Chunks, ChunkBatch uint32
	Seed               int64
	Width              uint32
}

// SaveCheckpoint writes the trainer's state: the header, the trainee
// scales, then replica 0's variables.
func (t *Trainer) SaveCheckpoint(w io.Writer) error {
	if t.closed {
		return ErrClosed
	}
	h := checkpointHeader{
		Version:    checkpointVersion,
		Step:       uint64(t.step),
		Chunks:     uint32(t.part.Chunks),
		ChunkBatch: uint32(t.part.ChunkBatch()),
		Seed:       t.opts.Seed,
		Width:      uint32(len(t.scales)),
	}
	copy(h.Magic[:], checkpointMagic)
	if err := binary.Write(w, binary.LittleEndian, h); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, t.scales); err != nil {
		return err
	}
	return runtime.SaveCheckpoint(w, t.replicas[0].graph.g)
}

// LoadCheckpoint restores every replica's variables and the global
// step counter from a dist checkpoint. It refuses a checkpoint from a
// different chunk grid, seed, width or learning-rate scales before
// restoring anything.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	if t.closed {
		return ErrClosed
	}
	var h checkpointHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return fmt.Errorf("dist: reading checkpoint header: %w", err)
	}
	if string(h.Magic[:]) != checkpointMagic {
		return fmt.Errorf("dist: not a dist checkpoint (magic %q)", h.Magic[:])
	}
	if h.Version != checkpointVersion {
		return fmt.Errorf("dist: unsupported checkpoint version %d", h.Version)
	}
	if int(h.Chunks) != t.part.Chunks || int(h.ChunkBatch) != t.part.ChunkBatch() || h.Seed != t.opts.Seed {
		return fmt.Errorf(
			"dist: checkpoint trained with chunks %d × batch %d, seed %d; this trainer uses chunks %d × batch %d, seed %d — only the replica count may change across a resume",
			h.Chunks, h.ChunkBatch, h.Seed, t.part.Chunks, t.part.ChunkBatch(), t.opts.Seed)
	}
	if int(h.Width) != len(t.scales) {
		return fmt.Errorf("dist: checkpoint trained %d trainees; this trainer has %d", h.Width, len(t.scales))
	}
	scales := make([]float32, h.Width)
	if err := binary.Read(r, binary.LittleEndian, scales); err != nil {
		return fmt.Errorf("dist: reading checkpoint scales: %w", err)
	}
	for k, s := range scales {
		if math.Float32bits(s) != math.Float32bits(t.scales[k]) {
			return fmt.Errorf("dist: checkpoint trainee %d trained at learning-rate scale %g; this trainer uses %g", k, s, t.scales[k])
		}
	}
	// The runtime checkpoint is consumed once; replay the bytes into
	// every replica graph.
	body, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	for i, rep := range t.replicas {
		if err := runtime.LoadCheckpoint(bytes.NewReader(body), rep.graph.g, false); err != nil {
			return fmt.Errorf("dist: restoring replica %d: %w", i, err)
		}
	}
	t.step = int(h.Step)
	return nil
}
