// Package serve is the suite's serving subsystem: a concurrent
// inference engine that exposes any Fathom workload's request-driven
// signature (core.Signature) to many simultaneous clients.
//
// # Architecture
//
// A runtime.Session is single-goroutine (its plan cache and buffer
// arena are unsynchronized), so the Engine owns a pool of sessions —
// one per worker goroutine — over one shared model graph. Sharing the
// graph is safe for inference: forward execution only reads variable
// values, and the mode-dependent stateful ops (dropout masks,
// optimizer slots) mutate state exclusively in training mode. The
// Engine therefore runs inference only; training on the same model
// must remain exclusive with serving.
//
// Requests carry one example each. A dispatcher goroutine coalesces
// concurrent requests into micro-batches: up to MaxBatch examples,
// waiting at most MaxDelay after the first arrival for more (when all
// workers are busy, a flushed batch keeps filling until one frees, so
// saturation converts queue time into batch fill) — packs them along
// each input's batch axis (IOSpec.BatchDim), executes one compiled-
// plan run of the inference signature's fetch set (the execution the
// workload's Inferencer performs), and splits the batched
// outputs back into per-request responses. Unfilled batch slots are
// zero-padded. Workloads that couple examples across the batch
// (core.BatchCoupled — residual's primitive batch normalization) are
// refused unless built at batch capacity 1, so batch composition and
// padding never perturb a request's rows. Stochastic inference graphs
// (autoenc's reparameterization sampling) are served batched: their
// noise is drawn i.i.d. per element from the worker session's RNG, so
// results are distributionally equivalent to sequential inference but
// — as inherent to sampling — not bitwise reproducible across calls.
//
// # Admission control and overload behavior
//
// Nothing about a production queue is allowed to be unbounded. Each
// engine runs two priority lanes — PriorityInteractive and
// PriorityBatch — each a bounded admission queue of QueueLen requests.
// When a lane's queue is full, Infer rejects immediately with
// ErrOverloaded instead of blocking: under overload the engine sheds
// early and cheaply at the door rather than letting every request's
// latency collapse. The dispatcher always drains the interactive lane
// first, so batch traffic absorbs queueing delay (and is shed first)
// while interactive latency stays bounded by roughly one batch
// execution.
//
// # Deadline budgets and load shedding
//
// A request's deadline is the earlier of its context deadline and
// Options.DefaultDeadline from admission time. The engine tracks an
// EWMA of batch execution latency; a request is shed with
// ErrOverloaded — at admission or when the dispatcher dequeues it —
// if its remaining budget cannot cover the estimated queue wait plus
// one execution (queued-batches-ahead × EWMA batch latency, inflated
// when the shared worker pool is saturated). A request whose deadline
// has already passed fails with ErrExpired and never occupies a batch
// slot. Because the pool busy/spawned gauges feed the estimate,
// multiple engines sharing one pool apply admission cooperatively:
// when the pool saturates, every engine's estimates grow and batch-
// lane traffic is rejected earlier.
//
// The estimate only updates when batches execute, so a poisoned-high
// EWMA (one slow compile, a GC stall) with all-deadlined traffic could
// otherwise shed everything forever and never observe a fresh sample.
// To stay self-healing, the engine admits one probe request past the
// budget gate every probeInterval: the probe executes (or honestly
// expires), refreshing the estimate toward reality.
//
// The Engine records an atomic stats block: request/batch/shed
// counters, queue depth and queue-wait gauges, mean and max batch
// fill, throughput, and per-lane log-bucketed latency histograms for
// p50/p99/p999.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ErrClosed is returned by Infer after Close.
var ErrClosed = errors.New("serve: engine closed")

// ErrOverloaded reports that the engine refused a request to protect
// itself: the lane's admission queue was full, or the request's
// deadline budget cannot cover the estimated queue + execution time.
// Clients should back off and retry (the HTTP layer maps it to 503
// with a Retry-After hint).
var ErrOverloaded = errors.New("serve: overloaded")

// ErrExpired reports that a request's deadline budget ran out before
// it executed. The HTTP layer maps it to 504.
var ErrExpired = errors.New("serve: deadline exceeded")

// Priority selects a request's admission lane. The dispatcher always
// serves the interactive lane first, so under load the batch lane is
// the one that queues, sheds, and expires.
type Priority uint8

const (
	// PriorityInteractive is the latency-sensitive default lane.
	PriorityInteractive Priority = iota
	// PriorityBatch is the throughput lane: shed first under overload.
	PriorityBatch

	numLanes = 2
)

// String names the lane for stats and logs.
func (p Priority) String() string {
	if p == PriorityBatch {
		return "batch"
	}
	return "interactive"
}

// ParsePriority maps the wire names to a Priority; the empty string is
// interactive (the default lane).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return PriorityInteractive, nil
	case "batch":
		return PriorityBatch, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// InputError reports a malformed request: a missing or unknown input
// name, a tensor that does not match its input's example shape, or an
// invalid priority. The HTTP layer maps it to 400; anything else from
// Infer is an execution fault.
type InputError struct{ msg string }

func (e *InputError) Error() string { return e.msg }

func inputErrorf(format string, args ...any) *InputError {
	return &InputError{msg: fmt.Sprintf(format, args...)}
}

// Options configures an Engine.
type Options struct {
	// Sessions is the worker-session pool size (default 1). Each
	// worker owns one runtime.Session; batches are executed by
	// whichever worker is free.
	Sessions int
	// MaxBatch caps how many requests one graph execution coalesces.
	// It is clamped to the signature's batch capacity (the graph's
	// batch-axis extent); 0 means "use the full capacity".
	MaxBatch int
	// MaxDelay bounds how long the dispatcher holds the first request
	// of a batch while waiting for more (default 2ms).
	MaxDelay time.Duration
	// Seed seeds the worker sessions (worker i gets Seed+i).
	Seed int64
	// Device selects the execution device (default CPU).
	Device runtime.Device
	// InterOpWorkers is the inter-op scheduler width each worker
	// session executes its plan with (default 1 = serial). Inter-op
	// parallelism composes with the session pool: Sessions spreads
	// independent batches, InterOpWorkers spreads independent
	// operations inside one batch, and results stay bit-identical to
	// serial execution.
	InterOpWorkers int
	// IntraOpWorkers is the real intra-op width of each worker
	// session's kernel pools (default 1 = serial kernels). Helpers
	// come from the shared process-wide worker pool, so the engine's
	// total execution goroutines stay bounded by that pool's size no
	// matter how many sessions or engines run — and results stay
	// bit-identical to serial execution (deterministic chunking and
	// reduction order; see tensor.Pool).
	IntraOpWorkers int
	// WorkerPool overrides the shared execution pool sessions lease
	// helpers from (default sched.Default()); tests use scoped pools.
	WorkerPool *sched.Pool
	// QueueLen caps each priority lane's admission queue (default
	// 4×MaxBatch). A full lane rejects new requests with
	// ErrOverloaded instead of queueing them — the queue cap is the
	// engine's hard bound on buffered work.
	QueueLen int
	// DefaultDeadline is the per-model deadline budget applied to
	// requests whose context carries no (or a later) deadline. Zero
	// means requests without a context deadline never expire or shed
	// on budget.
	DefaultDeadline time.Duration
	// Trace, when non-nil, enables request-scoped tracing: the
	// collector decides at admission whether a request is sampled (one
	// atomic increment; unsampled requests pay two nil checks), and
	// each sampled request yields a span tree — admission → queue →
	// batch → run → per-op children — retained in the collector's ring
	// for /debug/trace or -trace-dir export.
	Trace *telemetry.TraceCollector
}

// request is one queued inference call.
type request struct {
	inputs   map[string]*tensor.Tensor
	ctx      context.Context
	resp     chan response // buffered(1): workers never block on delivery
	enq      time.Time
	deadline time.Time // zero = no budget
	lane     Priority
	probe    bool // admitted past the budget gate to refresh the EWMA

	// trace is non-nil for the sampled 1-in-N: the request's span
	// tree, with rootSpan the whole-request span and queueSpan the
	// open queue-wait span the executing worker closes at batch start.
	trace     *telemetry.Trace
	rootSpan  telemetry.SpanID
	queueSpan telemetry.SpanID
}

// endAdmission terminates a trace whose request failed admission:
// closes the admission span, marks the disposition as a zero-width
// span, and finishes the trace.
func (r *request) endAdmission(adm telemetry.SpanID, disposition string) {
	if r.trace == nil {
		return
	}
	r.trace.EndSpan(adm)
	r.trace.AddSpan(disposition, r.rootSpan, 0, time.Now(), 0)
	r.finishTrace()
}

// finishTrace closes the request's remaining open spans and hands the
// trace to the collector; safe (and a no-op) for untraced requests and
// on duplicate calls from racing exit paths.
func (r *request) finishTrace() {
	if r.trace == nil {
		return
	}
	r.trace.EndSpan(r.queueSpan)
	r.trace.EndSpan(r.rootSpan)
	r.trace.Finish()
}

type response struct {
	outputs map[string]*tensor.Tensor
	err     error
}

// finish answers the request once; a duplicate answer (panic-recovery
// sweeping a batch that was partially delivered) is dropped rather
// than blocking on the full buffer.
func (r *request) finish(out map[string]*tensor.Tensor, err error) {
	select {
	case r.resp <- response{outputs: out, err: err}:
	default:
	}
}

// Engine serves one workload's inference signature to concurrent
// callers with dynamic micro-batching over a session pool. It is the
// sanctioned concurrent entry point to the runtime: callers on any
// goroutine call Infer; sessions stay confined to their workers.
type Engine struct {
	model    core.Model
	sig      core.Signature
	fetches  []*graph.Node // sig.Outputs in fetch order, bound once
	capacity int
	maxBatch int
	maxDelay time.Duration
	deadline time.Duration // DefaultDeadline

	lanes     [numLanes]chan *request
	batches   chan []*request
	done      chan struct{}
	stopped   chan struct{} // closed when dispatcher+workers have exited
	closeOnce sync.Once

	// sessions are the worker sessions, retained so shutdown can Close
	// them — releasing each session's lease on the shared worker pool.
	sessions []*runtime.Session

	// pool is the shared worker pool the sessions lease helpers from;
	// claim is the engine's total lease claim on it (sessions ×
	// per-session helper claim). Both feed the /stats gauges and the
	// admission estimate, so engines sharing a pool shed cooperatively.
	pool      *sched.Pool
	claim     int
	leaseName string

	// lastProbeNano rations budget-gate probes: when every request
	// would shed, one per probeInterval is admitted anyway so the batch
	// EWMA keeps seeing fresh samples (see the package doc).
	lastProbeNano atomic.Int64

	// trace is the sampling trace collector (nil = tracing off).
	trace *telemetry.TraceCollector

	stats stats
}

// New builds and starts an engine for a Setup model. The model must
// implement core.Inferencer, and its inference-signature batched
// inputs must agree on their batch extent. Combine with
// core.Config.Batch to build the graph at the micro-batching window
// you want to serve.
func New(m core.Model, opts Options) (*Engine, error) {
	if m.Graph() == nil {
		return nil, fmt.Errorf("serve: model %s has no graph (call Setup first)", m.Name())
	}
	if _, ok := m.(core.Inferencer); !ok {
		return nil, fmt.Errorf("serve: workload %s does not implement core.Inferencer", m.Name())
	}
	sig := m.Signature(core.ModeInference)
	if len(sig.Inputs) == 0 || len(sig.Outputs) == 0 {
		return nil, fmt.Errorf("serve: workload %s has an empty inference signature", m.Name())
	}
	capacity := sig.BatchCapacity()
	if bc, ok := m.(core.BatchCoupled); ok && bc.BatchCoupled() && capacity > 1 {
		return nil, fmt.Errorf(
			"serve: %s couples examples across the batch (its per-example outputs depend on batch composition); serve it unbatched by building with core.Config{Batch: 1} / -maxbatch 1",
			m.Name())
	}
	for _, in := range sig.Inputs {
		if in.BatchDim == core.BatchNone {
			return nil, fmt.Errorf("serve: input %q has no batch axis; cannot micro-batch %s", in.Name, m.Name())
		}
		if in.BatchDim < 0 || in.BatchDim >= len(in.Shape()) {
			return nil, fmt.Errorf("serve: input %q batch axis %d out of range for shape %v", in.Name, in.BatchDim, in.Shape())
		}
		if got := in.Shape()[in.BatchDim]; got != capacity {
			return nil, fmt.Errorf("serve: input %q batch extent %d != capacity %d", in.Name, got, capacity)
		}
	}
	for _, out := range sig.Outputs {
		if out.BatchDim == core.BatchNone {
			continue // whole-batch scalars are never unbatched
		}
		if out.BatchDim < 0 || out.BatchDim >= len(out.Shape()) {
			return nil, fmt.Errorf("serve: output %q batch axis %d out of range for shape %v", out.Name, out.BatchDim, out.Shape())
		}
		if got := out.Shape()[out.BatchDim]; got != capacity {
			return nil, fmt.Errorf("serve: output %q batch extent %d != capacity %d", out.Name, got, capacity)
		}
	}
	if opts.Sessions <= 0 {
		opts.Sessions = 1
	}
	if opts.MaxBatch <= 0 || opts.MaxBatch > capacity {
		opts.MaxBatch = capacity
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 2 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 4 * opts.MaxBatch
	}
	e := &Engine{
		model:    m,
		sig:      sig,
		capacity: capacity,
		maxBatch: opts.MaxBatch,
		maxDelay: opts.MaxDelay,
		deadline: opts.DefaultDeadline,
		batches:  make(chan []*request),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	for lane := range e.lanes {
		e.lanes[lane] = make(chan *request, opts.QueueLen)
	}
	for _, out := range sig.Outputs {
		e.fetches = append(e.fetches, out.Node)
	}
	e.pool = opts.WorkerPool
	if e.pool == nil {
		e.pool = sched.Default()
	}
	interOp, intraOp := opts.InterOpWorkers, opts.IntraOpWorkers
	if interOp < 1 {
		interOp = 1
	}
	if intraOp < 1 {
		intraOp = 1
	}
	e.claim = opts.Sessions * (interOp*intraOp - 1)
	e.leaseName = "engine/" + m.Name()
	e.trace = opts.Trace
	e.stats.reset()
	var workers sync.WaitGroup
	for i := 0; i < opts.Sessions; i++ {
		sessOpts := []runtime.Option{
			runtime.WithSeed(opts.Seed + int64(i)),
			runtime.WithLeaseName(e.leaseName),
		}
		if opts.Device != nil {
			sessOpts = append(sessOpts, runtime.WithDevice(opts.Device))
		}
		if opts.InterOpWorkers > 1 {
			sessOpts = append(sessOpts, runtime.WithInterOpWorkers(opts.InterOpWorkers))
		}
		if opts.IntraOpWorkers > 1 {
			sessOpts = append(sessOpts, runtime.WithIntraOpWorkers(opts.IntraOpWorkers))
		}
		if opts.WorkerPool != nil {
			sessOpts = append(sessOpts, runtime.WithWorkerPool(opts.WorkerPool))
		}
		sess := runtime.NewSession(m.Graph(), sessOpts...)
		e.sessions = append(e.sessions, sess)
		ws := newWorkerState(e, sess)
		workers.Add(1)
		go func() {
			defer workers.Done()
			for batch := range e.batches {
				e.runBatch(ws, batch)
			}
		}()
	}
	go func() {
		e.dispatch()
		workers.Wait() // workers finish the already-dispatched batches
		for _, sess := range e.sessions {
			sess.Close() // release each session's shared-pool lease
		}
		close(e.stopped)
	}()
	return e, nil
}

// Model returns the served workload.
func (e *Engine) Model() core.Model { return e.model }

// Signature returns the served inference signature.
func (e *Engine) Signature() core.Signature { return e.sig }

// MaxBatch returns the effective micro-batch cap.
func (e *Engine) MaxBatch() int { return e.maxBatch }

// DefaultDeadline returns the engine's per-request deadline budget
// (zero when unset).
func (e *Engine) DefaultDeadline() time.Duration { return e.deadline }

// requestDeadline resolves a request's deadline: the earlier of the
// context's deadline and now + DefaultDeadline. Zero means none.
func (e *Engine) requestDeadline(ctx context.Context, now time.Time) time.Time {
	dl, ok := ctx.Deadline()
	if e.deadline > 0 {
		if own := now.Add(e.deadline); !ok || own.Before(dl) {
			return own
		}
	}
	if !ok {
		return time.Time{}
	}
	return dl
}

// estimatedWait predicts how long a request admitted to lane now would
// wait before its batch completes: queued-batches-ahead × the EWMA
// batch latency, plus one execution. Interactive requests only wait on
// interactive traffic (the dispatcher serves that lane first); batch
// requests wait on everything. When the shared worker pool is
// saturated — every engine on it is executing, helpers degrade to
// serial — the estimate doubles, which is how co-tenant engines shed
// cooperatively. A cold engine (no batch measured yet) predicts zero.
func (e *Engine) estimatedWait(lane Priority) time.Duration {
	ew := e.stats.batchEWMA()
	if ew <= 0 {
		return 0
	}
	depth := int(e.stats.qdepth[PriorityInteractive].Load())
	if lane == PriorityBatch {
		depth += int(e.stats.qdepth[PriorityBatch].Load())
	}
	est := time.Duration(depth/e.maxBatch+1) * ew
	if e.pool.Size() > 0 && e.pool.Busy() >= e.pool.Size() {
		est *= 2
	}
	return est
}

// Infer submits one single-example request on the interactive lane and
// blocks until its result, the context's cancellation, or engine
// shutdown. Inputs are keyed by signature input name; each tensor must
// have the input's ExampleShape (the placeholder shape with the batch
// axis removed). Infer takes ownership of the input tensors: a worker
// may still be packing them after a cancelled return, so the caller
// must not mutate or reuse them afterwards (pass fresh tensors per
// call, as the HTTP layer does). Outputs are the signature's batched
// outputs, one example each; whole-batch scalar outputs (losses) are
// omitted. Infer is safe for concurrent use from any number of
// goroutines.
//
// Infer never queues unboundedly: when the lane's admission queue is
// full, or the request's deadline budget cannot cover the estimated
// queue + execution time, it fails fast with ErrOverloaded; a request
// whose deadline has already passed fails with ErrExpired.
func (e *Engine) Infer(ctx context.Context, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return e.InferPriority(ctx, inputs, PriorityInteractive)
}

// InferPriority is Infer on an explicit admission lane. Batch-lane
// requests are dispatched only when the interactive lane is empty and
// are shed first under overload.
func (e *Engine) InferPriority(ctx context.Context, inputs map[string]*tensor.Tensor, lane Priority) (map[string]*tensor.Tensor, error) {
	if lane >= numLanes {
		return nil, inputErrorf("serve: unknown priority %d", lane)
	}
	for _, in := range e.sig.Inputs {
		t, ok := inputs[in.Name]
		if !ok || t == nil {
			return nil, inputErrorf("serve: missing input %q (want %v)", in.Name, e.sig.InputNames())
		}
		want := in.ExampleShape()
		if !tensor.SameShape(t.Shape(), want) {
			return nil, inputErrorf("serve: input %q has shape %v, want example shape %v", in.Name, t.Shape(), want)
		}
	}
	if len(inputs) > len(e.sig.Inputs) {
		for name := range inputs {
			if _, ok := e.sig.Input(name); !ok {
				return nil, inputErrorf("serve: unknown input %q (want %v)", name, e.sig.InputNames())
			}
		}
	}
	now := time.Now()
	r := &request{
		inputs:   inputs,
		ctx:      ctx,
		resp:     make(chan response, 1),
		enq:      now,
		deadline: e.requestDeadline(ctx, now),
		lane:     lane,
	}
	// Trace sampling is decided here, once per request: either an
	// outer layer (HTTP admission) already minted a trace into the
	// context, or — for direct engine callers — the collector draws a
	// fresh 1-in-N sample. Unsampled requests pay only nil checks.
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		r.trace = tr
	} else if e.trace != nil && !telemetry.TraceDecided(ctx) && e.trace.Sample() {
		r.trace = e.trace.New(e.model.Name())
	}
	var admSpan telemetry.SpanID
	if r.trace != nil {
		r.rootSpan = r.trace.StartSpanAt("request", 0, now)
		admSpan = r.trace.StartSpanAt("admission", r.rootSpan, now)
	}
	// Admission control, cheapest checks first: an already-dead
	// deadline, then the budget-vs-estimate shed, then the bounded
	// queue. All three fail fast — the caller never blocks to learn
	// the engine is overloaded.
	if !r.deadline.IsZero() {
		if !now.Before(r.deadline) {
			e.stats.expired.Add(1)
			r.endAdmission(admSpan, "expired")
			return nil, ErrExpired
		}
		if est := e.estimatedWait(lane); est > 0 && now.Add(est).After(r.deadline) {
			if !e.tryProbe(now) {
				e.stats.shed.Add(1)
				r.endAdmission(admSpan, "shed")
				return nil, ErrOverloaded
			}
			r.probe = true
		}
	}
	if r.trace != nil {
		// The queue span must exist before the request is published to
		// the lane channel: the batch worker closes it the moment it
		// picks the request up, and the send below is the only
		// happens-before edge between this goroutine and that worker.
		// On a failed send the disposition span records the outcome and
		// the never-waited queue span closes at ~zero duration.
		r.trace.EndSpan(admSpan)
		r.queueSpan = r.trace.StartSpan("queue", r.rootSpan)
	}
	select {
	case e.lanes[lane] <- r:
		e.stats.qdepth[lane].Add(1)
	case <-e.done:
		r.endAdmission(admSpan, "closed")
		return nil, ErrClosed
	case <-ctx.Done():
		r.endAdmission(admSpan, "cancelled")
		return nil, ctx.Err()
	default:
		// Lane queue full: reject early rather than queue unboundedly.
		e.stats.rejected.Add(1)
		r.endAdmission(admSpan, "rejected")
		return nil, ErrOverloaded
	}
	if r.trace != nil {
		defer r.finishTrace()
	}
	var resp response
	select {
	case resp = <-r.resp:
	case <-ctx.Done():
		// The batch may still execute; the buffered resp channel lets
		// the worker complete without us.
		e.stats.cancels.Add(1)
		return nil, ctx.Err()
	case <-e.stopped:
		// Dispatcher and workers have exited, so nothing will answer —
		// unless a response raced in just before shutdown. (The submit
		// select may legitimately enqueue concurrently with Close: the
		// buffered reqs send and the closed done channel are both
		// ready, and select picks either.)
		select {
		case resp = <-r.resp:
		default:
			e.stats.cancels.Add(1)
			return nil, ErrClosed
		}
	}
	if resp.err != nil {
		switch {
		case errors.Is(resp.err, ErrOverloaded) || errors.Is(resp.err, ErrExpired):
			// Shed/expired dispositions were counted where they were
			// decided (dispatcher or worker) — not engine faults.
		case errors.Is(resp.err, context.Canceled) || errors.Is(resp.err, context.DeadlineExceeded) || errors.Is(resp.err, ErrClosed):
			// Caller-side aborts (the dispatcher or a worker observed
			// the request's context already cancelled) are not engine
			// faults either.
			e.stats.cancels.Add(1)
		default:
			e.stats.errors.Add(1)
		}
		return nil, resp.err
	}
	e.stats.record(lane, time.Since(r.enq))
	return resp.outputs, nil
}

// Close stops accepting requests, fails queued ones with ErrClosed,
// and waits for in-flight batches to finish.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.done) })
	<-e.stopped
}

// Stats returns a snapshot of the engine's counters, plus the shared
// worker pool's busy/spawned gauges and the engine's lease claim on it
// — the load signals the admission estimate and any shedding layer in
// front of /stats key off: when PoolBusy sits at PoolSize, every
// engine on the pool is executing degraded (serial) and added load
// only queues.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot()
	s.PoolSize = e.pool.Size()
	s.PoolBusy = e.pool.Busy()
	s.PoolSpawned = e.pool.Spawned()
	s.LeaseClaim = e.claim
	// Arena utilization summed over the worker sessions' plan arenas
	// (Arena.Stats is the one concurrency-safe arena read).
	var gets int
	for _, sess := range e.sessions {
		as := sess.Arena().Stats()
		s.ArenaLiveBuffers += as.LiveBuffers
		s.ArenaTotalBuffers += as.TotalBuffers
		s.ArenaBytes += as.TotalBytes
		s.ArenaReuses += as.Reuses
		gets += as.Reuses + as.TotalBuffers
	}
	if gets > 0 {
		s.ArenaReuseRatio = float64(s.ArenaReuses) / float64(gets)
	}
	// Per-tenant adaptive grants: every lease on the shared pool,
	// aggregated by tenant name — the engine's own sessions appear as
	// "engine/<model>" next to any co-resident dist trainer
	// ("dist/<model>"), fused or not. LeaseGranted is
	// this engine's slice: what the occupancy negotiation currently
	// grants it, as opposed to the static claim it asked for.
	for _, ls := range e.pool.LeaseStats() {
		if ls.Name == e.leaseName {
			s.LeaseGranted += ls.Granted
		}
		i := 0
		for ; i < len(s.Tenants); i++ {
			if s.Tenants[i].Name == ls.Name {
				break
			}
		}
		if i == len(s.Tenants) {
			s.Tenants = append(s.Tenants, TenantStats{Name: ls.Name})
		}
		s.Tenants[i].Leases++
		s.Tenants[i].Want += ls.Want
		s.Tenants[i].Granted += ls.Granted
		s.Tenants[i].Active += ls.Active
	}
	return s
}

// ResetStats zeroes the counters and restarts the uptime clock —
// e.g. after warmup, so steady-state metrics exclude one-time plan
// compilation. The queue-depth gauges and latency EWMAs survive: they
// describe the engine's current state, not its history.
func (e *Engine) ResetStats() { e.stats.zero() }

// probeInterval rations the budget-gate probe admissions that keep the
// batch EWMA self-healing when everything else sheds.
const probeInterval = 100 * time.Millisecond

// tryProbe claims the probe slot if one is due (CAS so concurrent
// shedding callers admit at most one per interval).
func (e *Engine) tryProbe(now time.Time) bool {
	last := e.lastProbeNano.Load()
	return now.UnixNano()-last >= int64(probeInterval) &&
		e.lastProbeNano.CompareAndSwap(last, now.UnixNano())
}

// admit decides one dequeued request's fate at dispatch time: drop it
// if its context is done or its deadline has passed (it must never
// occupy a batch slot), shed it if the remaining budget cannot cover
// even one batch execution (probes are exempt — their job is to reach
// execution and refresh the estimate). Reports whether the request may
// join a batch.
func (e *Engine) admit(r *request, now time.Time) bool {
	if err := r.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.stats.expired.Add(1)
			r.finish(nil, ErrExpired)
		} else {
			r.finish(nil, err)
		}
		return false
	}
	if !r.deadline.IsZero() {
		if !now.Before(r.deadline) {
			e.stats.expired.Add(1)
			r.finish(nil, ErrExpired)
			return false
		}
		if ew := e.stats.batchEWMA(); !r.probe && ew > 0 && now.Add(ew).After(r.deadline) {
			e.stats.shed.Add(1)
			r.finish(nil, ErrOverloaded)
			return false
		}
	}
	return true
}

// tryNext dequeues the next request without blocking, always draining
// the interactive lane before the batch lane — the priority rule.
func (e *Engine) tryNext() *request {
	select {
	case r := <-e.lanes[PriorityInteractive]:
		e.stats.qdepth[PriorityInteractive].Add(-1)
		return r
	default:
	}
	select {
	case r := <-e.lanes[PriorityBatch]:
		e.stats.qdepth[PriorityBatch].Add(-1)
		return r
	default:
	}
	return nil
}

// next blocks for the first request of a batch; nil means shutdown.
func (e *Engine) next() *request {
	if r := e.tryNext(); r != nil {
		return r
	}
	select {
	case r := <-e.lanes[PriorityInteractive]:
		e.stats.qdepth[PriorityInteractive].Add(-1)
		return r
	case r := <-e.lanes[PriorityBatch]:
		e.stats.qdepth[PriorityBatch].Add(-1)
		return r
	case <-e.done:
		return nil
	}
}

// testHookDispatch, when non-nil, runs at the top of every dispatch
// iteration. Tests install it before New — and clear it only after
// Close has joined the dispatch loop — to stall dequeueing while they
// build a deterministic backlog.
var testHookDispatch func()

// dispatch is the micro-batching loop: take the first pending request,
// then collect more until the batch is full or MaxDelay elapses.
// Every dequeue goes through admit, so cancelled, expired, and
// unserviceable requests are dropped here — they never occupy a batch
// slot or skew the batch-fill stats.
func (e *Engine) dispatch() {
	defer close(e.batches)
	for {
		if h := testHookDispatch; h != nil {
			h()
		}
		first := e.next()
		if first == nil {
			e.drain()
			return
		}
		if !e.admit(first, time.Now()) {
			continue
		}
		batch := []*request{first}
		if len(batch) < e.maxBatch { // MaxBatch 1 never waits
			timer := time.NewTimer(e.maxDelay)
		collect:
			for len(batch) < e.maxBatch {
				if r := e.tryNext(); r != nil {
					if e.admit(r, time.Now()) {
						batch = append(batch, r)
					}
					continue
				}
				select {
				case r := <-e.lanes[PriorityInteractive]:
					e.stats.qdepth[PriorityInteractive].Add(-1)
					if e.admit(r, time.Now()) {
						batch = append(batch, r)
					}
				case r := <-e.lanes[PriorityBatch]:
					e.stats.qdepth[PriorityBatch].Add(-1)
					if e.admit(r, time.Now()) {
						batch = append(batch, r)
					}
				case <-timer.C:
					break collect
				case <-e.done:
					break collect
				}
			}
			timer.Stop()
		}
		// Hand off. While every worker is busy, keep topping the batch
		// up to MaxBatch — queue wait converts into batch fill instead
		// of under-filled runs.
		sent := false
		for !sent && len(batch) < e.maxBatch {
			if r := e.tryNext(); r != nil {
				if e.admit(r, time.Now()) {
					batch = append(batch, r)
				}
				continue
			}
			select {
			case e.batches <- batch:
				sent = true
			case r := <-e.lanes[PriorityInteractive]:
				e.stats.qdepth[PriorityInteractive].Add(-1)
				if e.admit(r, time.Now()) {
					batch = append(batch, r)
				}
			case r := <-e.lanes[PriorityBatch]:
				e.stats.qdepth[PriorityBatch].Add(-1)
				if e.admit(r, time.Now()) {
					batch = append(batch, r)
				}
			case <-e.done:
				e.batches <- batch
				e.drain()
				return
			}
		}
		if !sent {
			e.batches <- batch
		}
		select {
		case <-e.done:
			e.drain()
			return
		default:
		}
	}
}

// drain fails every still-queued request after shutdown.
func (e *Engine) drain() {
	for lane := range e.lanes {
	laneDrain:
		for {
			select {
			case r := <-e.lanes[lane]:
				e.stats.qdepth[lane].Add(-1)
				r.finish(nil, ErrClosed)
			default:
				break laneDrain
			}
		}
	}
}

// workerState is one worker's execution kit, built once: its session
// (inference mode), reusable full-batch input buffers (parallel to
// sig.Inputs), and the feeds map binding those buffers to their
// placeholders. Per batch, the steady-state path allocates only the
// per-request output examples.
type workerState struct {
	sess   *runtime.Session
	packed []*tensor.Tensor
	feeds  runtime.Feeds
}

func newWorkerState(e *Engine, sess *runtime.Session) *workerState {
	sess.SetTraining(false)
	ws := &workerState{sess: sess, feeds: make(runtime.Feeds, len(e.sig.Inputs))}
	for _, in := range e.sig.Inputs {
		buf := tensor.New(in.Shape()...)
		ws.packed = append(ws.packed, buf)
		ws.feeds[in.Node] = buf
	}
	return ws
}

// attachRunSpans replicates one executed batch's span subtree — batch
// → run → per-op events — into every traced request it served. A
// batch rarely carries more than one sampled request, so the
// duplication is cheap; each trace stays self-contained. Op spans land
// on lane 1+Event.Worker, so a traced request renders its inter-op
// parallelism; request-level spans stay on lane 0.
func attachRunSpans(traced []*request, batchStart, runStart time.Time, runDur time.Duration, events []runtime.Event) {
	batchDur := time.Since(batchStart)
	for _, r := range traced {
		bs := r.trace.AddSpan("batch", r.rootSpan, 0, batchStart, batchDur)
		rs := r.trace.AddSpan("run", bs, 0, runStart, runDur)
		for i := range events {
			ev := &events[i]
			r.trace.AddSpan(ev.Op, rs, 1+ev.Worker, ev.WallStart, ev.Wall)
		}
	}
}

// runBatch executes one micro-batch on a worker, packing requests into
// the worker's input buffers and running the signature's fetch set
// directly (the same execution the workload's Inferencer performs). A
// panic out of graph execution fails the batch's requests instead of
// killing the worker (and with it the process).
func (e *Engine) runBatch(ws *workerState, batch []*request) {
	var live []*request
	defer func() {
		if p := recover(); p != nil {
			for _, r := range live {
				r.finish(nil, fmt.Errorf("serve: %s: panic during batch execution: %v", e.model.Name(), p))
			}
		}
	}()
	start := time.Now()
	live = batch[:0]
	var traced []*request
	for _, r := range batch {
		// Last gate before a slot is spent: requests that died between
		// dispatch and execution are skipped so they never skew fill.
		if err := r.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				e.stats.expired.Add(1)
				r.finish(nil, ErrExpired)
			} else {
				r.finish(nil, err)
			}
			continue
		}
		if !r.deadline.IsZero() && !start.Before(r.deadline) {
			e.stats.expired.Add(1)
			r.finish(nil, ErrExpired)
			continue
		}
		live = append(live, r)
		e.stats.recordWait(start.Sub(r.enq))
		if r.trace != nil {
			r.trace.EndSpanAt(r.queueSpan, start)
			traced = append(traced, r)
		}
	}
	if len(live) == 0 {
		return
	}
	for ii, in := range e.sig.Inputs {
		buf := ws.packed[ii]
		for i, r := range live {
			putExample(buf, in.BatchDim, i, r.inputs[in.Name])
		}
		// Slots past the fill keep stale rows from earlier batches;
		// zero just that tail (a full batch clears nothing).
		clearTail(buf, in.BatchDim, len(live))
	}
	// The traced path — only when this batch carries a sampled request
	// — runs with one-shot event capture so each traced request's span
	// tree gets the run's per-op events as children.
	var vals []*tensor.Tensor
	var err error
	if len(traced) > 0 {
		runStart := time.Now()
		var events []runtime.Event
		vals, events, err = ws.sess.RunTraced(e.fetches, ws.feeds)
		attachRunSpans(traced, start, runStart, time.Since(runStart), events)
	} else {
		vals, err = ws.sess.Run(e.fetches, ws.feeds)
	}
	e.stats.recordBatchExec(time.Since(start))
	if err != nil {
		for _, r := range live {
			r.finish(nil, fmt.Errorf("serve: %s: %w", e.model.Name(), err))
		}
		return
	}
	e.stats.recordBatch(len(live))
	for i, r := range live {
		result := make(map[string]*tensor.Tensor, len(e.sig.Outputs))
		for oi, out := range e.sig.Outputs {
			if out.BatchDim == core.BatchNone {
				continue // whole-batch scalars are not per-request
			}
			result[out.Name] = getExample(vals[oi], out.BatchDim, i)
		}
		r.finish(result, nil)
	}
}
