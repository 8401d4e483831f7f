// Package repro is a from-scratch Go reproduction of "Fathom: Reference
// Workloads for Modern Deep Learning Methods" (Adolf et al., IISWC 2016).
//
// The repository contains a complete dataflow deep-learning framework
// (tensors, symbolic autodiff, an operation library, and a traced
// execution runtime), the eight Fathom workloads built on top of it, and
// the characterization toolkit that regenerates every table and figure
// of the paper's evaluation. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// # Execution architecture
//
// The runtime compiles each fetch set into an execution plan
// (runtime.Plan): the schedule is topologically sorted once, liveness
// analysis assigns every operation output a slot in a size-bucketed
// buffer arena (tensor.Arena), and operations implementing
// graph.IntoOp write their results into those preassigned slots, so
// steady-state steps run with near-zero heap allocation. Tensors
// returned from Session.Run are copied out of arena memory, so results
// stay valid across steps.
//
// Plan execution has two interchangeable drivers. The default runs
// the sequential schedule on the session goroutine. With
// runtime.WithInterOpWorkers(n) (CLI: -interop) a dependency-counting
// parallel scheduler drains the plan's ready queue with the session
// goroutine plus up to n-1 helpers instead: compilation additionally
// records per-step successor lists and in-degrees over data edges,
// variable hazard edges, a serial lane chaining Impure (stateful/RNG)
// operations in schedule order, and arena anti-dependency edges that
// gate buffer reuse on the completion of every reader of the buffer's
// previous value. The ready queue is a max-heap keyed by longest
// processing time to a sink, so the drain starts critical-path work
// first.
//
// # Shared worker pool and session lifecycle
//
// All execution helpers — intra-op kernel chunks, the inter-op drain,
// and every serve.Engine worker session — come from one process-wide
// bounded pool of persistent goroutines (internal/sched; CLI: -pool
// N). Nothing spawns goroutines per Run: a Session takes a Lease on
// the pool at creation, sized to its inter-op × intra-op width, and
// releases it in Session.Close (after which Run fails with
// runtime.ErrClosed; engines Close their sessions on shutdown). Helper
// acquisition is non-blocking and every parallel construct is written
// caller-participates-first, so pool exhaustion degrades to serial
// execution on the caller — never deadlock — and total execution
// goroutines stay bounded by the pool size no matter how many engines
// and sessions run concurrently.
//
// # Intra-op parallelism: real and modeled
//
// tensor.Pool runs the chunked loops of every kernel behind one
// interface with two strategies. The serial+simulated strategy
// (runtime.WithWorkers; CLI: -workers) executes chunks serially,
// measures them, and models the makespan of list-scheduling them over
// n lanes — the paper's Fig. 6 axis, usable on any host. The real
// strategy (runtime.WithIntraOpWorkers; CLI: -intraop) executes the
// same chunks on shared-pool goroutines and reports measured wall
// time. `fathom profile` puts the two side by side per workload.
//
// # Determinism contract
//
// Execution is bit-deterministic along two axes, enforced by the
// cross-workload harness in internal/models (determinism_test.go) and
// the scheduler property tests in internal/runtime:
//
//   - Replay: two sessions with the same WithSeed over the same model
//     produce bit-identical losses, fetches and variable updates.
//   - Schedule independence: results are bit-identical for every
//     intra-op × inter-op width combination. The serial-lane rule
//     makes this hold for stateful operations — anything Impure
//     (random sampling, dropout's saved mask, optimizer slot state)
//     executes in schedule order with mutual exclusion, so the RNG
//     consumption sequence never depends on scheduling; and anything
//     mutating a variable in place (graph.Mutator) is serialized
//     against every other access to that variable in schedule order.
//
// Intra-op width independence rests on tensor.Pool's chunking
// contract: chunk boundaries are a function of trip count and grain
// only — never of worker count or helper availability — For bodies
// are index-pure (each chunk writes only its own output range), and
// cross-chunk float32 reductions (Pool.ForSum/ForMax, used by the
// full-reduction path of tensor.Reduce) combine per-chunk partials in
// ascending chunk order at every width including 1. Pool width is
// immutable after the first region (SetWorkers panics), so modeled
// makespans can never be skewed mid-plan.
//
// Simulated timing follows the package's philosophy for inter-op as
// for intra-op parallelism: n modeled worker lanes are list-scheduled
// and the session clock advances by the simulated makespan, so the
// profiler reports achieved and achievable (critical-path) inter-op
// speedup per workload — `fathom profile -interop N` — even on a
// single-core host.
//
// The two hottest kernels are blocked for cache behavior:
// tensor.MatMul dispatches large products to a tiled GEMM that packs A
// and B panels into contiguous scratch ahead of a 4-row register-
// blocked microkernel, and tensor.Conv2D lowers every convolution,
// strided ones included, to im2col + matmul (1×1 unit-stride
// convolutions go straight to GEMM).
//
// # Kernel tier 2
//
// The blocked GEMM decomposes the output into a 2-D grid of
// blockM×blockN tiles — row blocks × column panels — and the tiles of
// one reduction slab form a single flat parallel region, so big square
// and tall/skinny products alike expose mBlocks×panels independent
// work units instead of the former row-only split inside one column
// panel. B panels are packed once per slab on the calling goroutine
// and shared read-only by every lane; each lane packs A into per-lane
// scratch. Short-and-wide streaming products (fewer than
// streamSplitRows rows) chunk over columns instead of rows, so
// single-row inference GEMMs parallelize too. Tile grid, panel groups
// and chunk boundaries are pure functions of shape, and every output
// element accumulates the same products in the same ascending-slab
// order at every width, so the decomposition is invisible in the
// result bits (TestMatMulTiledMatchesRowOnly pins them to the retained
// row-only kernels).
//
// A graph-level epilogue-fusion pass (graph.FuseEpilogues; pass 4 of
// graph.Optimize, and applied to every workload's training graph via
// nn.TrainPlan.Fuse) folds elementwise consumers — bias Add, Relu,
// Tanh, and friends — into their GEMM/Conv2D producer: a producer
// implementing graph.EpilogueProducer absorbs the consumer node in
// place (node identity preserved), eliminating one arena round-trip
// per folded op. The pass never fuses across Impure or Mutator ops,
// multi-reader intermediates (gradient taps keep pre-activations
// materialized), externally fetched/kept nodes, or shape-changing
// consumers; fused epilogues run in place over the same float
// sequence, so fused and unfused graphs are bit-identical.
//
// Axis reductions complete the chunked-combine story: max-kind
// reductions run through Pool.ForMaxVec (per-chunk partial vectors,
// combined elementwise in ascending chunk order), and reductions with
// many outputs parallelize over output fibers, each fiber folded whole
// in ascending input order — bit-identical at every width. Optimizer
// slot state (momentum/RMSProp/Adam/Adagrad accumulators, plus Adam's
// step counter) lives in "<var>/slot/<name>" graph variables, so
// checkpoints capture the full optimizer trajectory and resumed runs
// stay bit-identical for every optimizer. Finally, the Into kernels
// (MatMulInto, ReduceInto, SoftmaxInto) never read their destination
// and therefore forbid aliasing it with an input; the debug guard
// tensor.AliasChecks turns violations into panics instead of silent
// corruption (the tensor test binary enables it for every kernel
// invocation).
//
// # Fused attention
//
// tensor.FusedAttention executes the scaled-dot-product attention
// chain Softmax(Q·Kᵀ·scale)·V as one streaming kernel: for each of
// the G·S output rows (parallelized over the shared pool like any
// other kernel) it computes the row of scores, its softmax, and the
// probability-weighted sum of V in a scratch buffer of O(S) floats —
// the (G,S,S) score and probability matrices are never materialized,
// which removes the naive chain's dominant memory traffic
// (BenchmarkAttentionFused and BenchmarkAttentionNaive time the two).
// The kernel replays the exact float sequence of the unfused chain —
// same dot order, one scale rounding, the softmax's max/exp/sum/
// normalize in the same ascending order — so fused and unfused are
// bit-identical at every intra-op width, including rows containing
// ±Inf masks.
//
// At the graph level, ops.NaiveAttention builds the unfused reference
// chain and graph.FuseAttention (joining pass 4 of graph.Optimize,
// ahead of epilogue fusion, which would otherwise absorb the chain's
// scale) pattern-matches BatchMatMul→scalar-Mul→Softmax→BatchMatMul
// with a rank-3 (0,2,1) transpose on K and rewrites it in place to one
// FusedAttention node, under the same gates as epilogue fusion
// (single-reader intermediates, no Impure/Mutator, no kept/fetched
// nodes). Training graphs fuse before gradient construction: the fused
// op's Grad recomputes the probability matrix in its own backward
// subgraph, so dQ/dK/dV match the naive chain's autodiff bitwise. The
// attention workload (internal/models/attention: a multi-head
// self-attention encoder block with residual/layer-norm structure and
// a position-wise FFN on a synthetic sequence-reversal task) drives
// the fused path end to end through training, the determinism harness,
// serve, dist, and fuse; `-heads N` overrides its head count.
//
// # Serving architecture
//
// The standard model interface is request-driven: every workload
// publishes a core.Signature per mode (named input placeholders and
// named output nodes, each with an explicit batch axis) and implements
// the core.Inferencer / core.Trainer capabilities; self-feeding
// profile steps go through the core.Step adapter. On top of that
// contract, internal/serve provides the concurrent serving subsystem:
// serve.Engine owns a pool of single-goroutine runtime.Sessions over
// one shared graph, coalesces concurrent single-example requests into
// dynamic micro-batches (MaxBatch/MaxDelay) executed as one compiled-
// plan run each, supports context cancellation, and keeps an atomic
// stats block (throughput, p50/p99 latency, batch fill). serve.Server
// and `fathom serve` expose any registered workload over HTTP/JSON
// (POST /v1/models/<name>:infer, GET /v1/models, /healthz, /stats).
// /stats additionally carries the shared worker pool's busy/spawned
// gauges and each engine's lease claim, the signals a load-shedding
// layer keys off.
//
// # Serving robustness
//
// Nothing in the serving path queues unboundedly. Each engine runs two
// priority lanes — interactive (the default) and batch — each a
// bounded admission queue (Options.QueueLen); a full lane fails fast
// with serve.ErrOverloaded instead of blocking. A request's deadline
// budget is the earlier of its context deadline and the engine's
// Options.DefaultDeadline; the engine tracks an EWMA of batch
// execution latency and sheds a request — at admission or at dispatch
// — when its remaining budget cannot cover the estimated queue wait
// plus one execution. The estimate counts queued-batches-ahead (only
// interactive traffic for interactive requests: the dispatcher always
// drains that lane first, so batch traffic queues, sheds, and expires
// first) and doubles when the shared worker pool is saturated, which
// is how co-tenant engines on one pool shed cooperatively. Requests
// whose deadline has already died fail with serve.ErrExpired and never
// occupy a batch slot — cancelled and expired requests are filtered
// at dispatch and again before packing, so they cannot skew batch-fill
// stats. A rationed probe admission (one per 100ms past the budget
// gate) keeps the estimate self-healing when it spikes above every
// deadline. The HTTP layer maps the taxonomy to a machine-readable
// error contract ({"error", "code"}: invalid_input 400, overloaded 503
// + Retry-After, deadline_exceeded 504, closed 503), and /stats
// reports the admission counters (rejected/shed/expired), queue-depth
// and queue-wait gauges, and per-lane p50/p99/p999.
//
// internal/loadgen is the open-loop traffic harness that proves the
// contract: seeded Poisson or uniform arrivals at a target QPS,
// submitted on schedule regardless of completion (closed-loop clients
// hide overload by self-throttling), with a mixed-priority lane split.
// `fathom loadtest` measures closed-loop capacity, then drives
// 0.5×/1×/2× of it and reports goodput (completions inside the
// deadline), shed rate, and per-lane latency quantiles. The repository's
// performance record is BENCHMARK.json, run by perfbench/run.sh: HTTP
// serving and data-parallel training, end to end and layer by layer.
//
// # Distributed training
//
// internal/dist adds the third scaling axis: data-parallel training of
// N model replicas, each with its own graph and session, driven by
// `fathom train -replicas N`. A global training step is decomposed
// into a canonical grid of micro-batches ("chunks", dataset.Partition)
// whose size is fixed per run — independent of the replica count —
// and replicas own contiguous ascending chunk ranges. Per chunk, a
// replica reseeds its session RNG and draws its batch from a generator
// keyed by dataset.ChunkSeed(seed, step, chunk) (core.TrainSampler),
// then fetches the loss and raw parameter gradients through the
// gradient/update surface nn.BuildTraining records (nn.TrainPlan) —
// forward and backward only, no variable is touched. The all-reduce
// then combines the per-chunk gradients of each parameter in fixed
// ascending-replica, ascending-chunk float32 order — exactly ascending
// order over the chunk grid — scales by 1/chunks, and every replica
// applies the identical combined update through TrainPlan's
// fed-gradient placeholders, keeping all replica variables bitwise
// identical forever.
//
// The resulting contract extends the determinism harness: for a fixed
// global batch, chunk count and seed, losses and final variables are
// bit-identical across replica counts {1, 2, 4} and across replica ×
// intra-op widths — the replica count changes only the partition,
// never the math. Replicas execute concurrently as clients of the
// shared worker pool under the usual rules (leases,
// caller-participates-first, degrade-to-serial on exhaustion), so
// execution goroutines stay bounded by the pool size; dist checkpoints
// (a step header plus the variable checkpoint) restore at any replica
// count dividing the chunk grid with bit-identical continuation.
// `fathom train` reports achieved wall speedup against the Amdahl
// bound of the run's own phase structure (profiling.TrainScaling) and
// live-checks the bit-identity invariant.
//
// # Horizontally fused training
//
// A dist replica may also be a horizontally fused array, the
// HFTA-style fourth scaling axis. Instead of running K training
// instances side by side (K graphs, K sessions, K GEMMs per layer),
// dist.Options.LRScales of length K > 1 makes every replica run one
// array-batched graph in which every parameter, gradient, and
// optimizer update is stacked along a leading fusion axis of size K,
// so a single batched matrix multiply (ops.BatchMatMul) — and a single
// arena, plan, and session — serves all K trainees at once. The
// transform is graph-level and works on any dist.Trainable workload:
// shared structure (placeholders, constants, non-parameter state, the
// RNG source lane) is computed once and broadcast, per-trainee
// structure is lifted onto the fusion axis, and the impure lane's
// schedule order is preserved so one shared dropout mask keeps RNG
// draw-count parity with a standalone run. The optimizer apply-ops
// take the K learning rates and update the stacked slices. Trainees
// may diverge only through their learning-rate scales, which is the
// hyperparameter-search use case: K learning rates explored for the
// price of roughly one run. A fused replica is driven by the same
// chunk protocol, all-reduce and checkpoint format as a plain one, so
// N fused replicas train K×N trainees with one all-reduce over the
// stacked parameters.
//
// The fused determinism contract extends the harness once more: each
// trainee's loss trajectory and final variables are bit-identical to
// a width-1 run with the same seed, chunk grid, and learning-rate
// scale, across widths K ∈ {2, 4} × intra-op {1, 4} and at 2 replicas.
// This holds by construction — fused kernels iterate the fusion axis
// invoking the standalone kernel on contiguous per-trainee views.
// `fathom train -fuse K` trains a width-K replica next to the
// data-parallel baseline and reports both throughputs.
//
// # Adaptive pool leases
//
// Pool leases are occupancy-driven rather than static. Every tenant —
// plain sessions, serve engines ("engine/<model>"), dist trainers
// ("dist/<model>", fused or not) — registers a named
// lease recording what it wants; while total wants fit the pool,
// everyone gets a full grant. When tenants oversubscribe the pool, a
// time-gated renegotiation on the TryRun path water-fills grants over
// each lease's measured demand (recent peak concurrency plus pressure
// from denied acquisitions) with a floor of one helper, so mixed
// tenants sharing one pool converge on their actual usage instead of
// their declared width and none starves (raced in CI by the
// mixed-tenant test: a serving engine and a fused trainer on one
// pool, both making progress, goroutines bounded). Grants are
// advisory caps on helper acquisition — degrade-to-serial still
// applies — and /stats reports per-tenant want/granted/active so the
// renegotiation is observable.
//
// # Observability
//
// internal/telemetry unifies the process's metrics, traces, and
// training-phase timings. The metrics registry is scrape-time only:
// every series is a reader (CounterFunc/GaugeFunc over atomics the
// subsystems already maintain, Histogram over the log-bucketed
// LogHistogram generalized out of serve's stats), so registration
// adds nothing to the request hot path. A serving process exposes the
// registry in Prometheus 0.0.4 text format at /metrics — serve
// admission/shed/latency families per model, shared worker-pool
// gauges, per-engine arena utilization, and dist/fuse training
// throughput — next to the JSON /stats endpoint (which also carries
// arena and queue-wait quantile blocks).
//
// Request tracing samples at admission: `fathom serve -tracesample N`
// traces every Nth request end to end, the decision made exactly once
// per request and carried via context through queue wait, batch
// packing, and the run, so unsampled requests never touch a trace. A
// sampled request yields a span tree — request, admission, queue,
// batch, run, and one child per executed op on its worker lane,
// reusing the runtime's Event capture — collected in a bounded ring
// and exported as Chrome trace-event JSON by telemetry.WriteChromeTraces,
// the one trace writer, either periodically to -tracedir or one-shot
// via /debug/trace (load chrome://tracing or Perfetto). -pprof mounts net/http/pprof under /debug/pprof/.
// Training gets the same treatment from the loop side: dist and fuse
// trainers record per-step sample/grad/reduce/apply phase timings in
// a fixed ring, scraped through the registry and printed as a phase
// table by `fathom train -trace`.
//
// The overhead contract is <2%: the full stack — registry populated
// plus tracing at the default 1/1000 — must stay within 2% of the
// bare engine on the BenchmarkServe workload, measured as CPU per
// request and enforced in CI (TELEMETRY_OVERHEAD_GATE). The measured
// budget behind the default rate: a traced request costs ~15µs of CPU
// for its ~50 spans, so 1/1000 amortizes below the noise floor while
// 1/10 costs a measurable ~18%. Tracing perturbs timings, never
// results — the determinism contract holds with telemetry on.
package repro
