package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// serveSpec is one serving workload: the model it serves, the fixed
// rate its latency is measured at, and the latency limit and rate
// ladder its max_rate_rps is measured against. The rates are absolute
// and fixed here, never derived from a capacity measured in the run,
// so the offered load stays the same when the code gets faster.
type serveSpec struct {
	model    string
	preset   core.Preset
	rate     float64       // requests/s of the fixed-rate phase
	limit    time.Duration // p99 limit a ladder rung must meet
	ladder   []float64     // fixed rungs, ascending, <=5% apart
	examples int           // distinct request bodies
	// queueLen is the engine's per-lane admission queue; 0 keeps the
	// engine default of 4×MaxBatch.
	queueLen int
}

var (
	alexnetSpec = serveSpec{
		model: "alexnet", preset: core.PresetTiny, rate: 60,
		limit: 100 * time.Millisecond, ladder: rungs(20, 400), examples: 32,
	}
	// At 1000 requests/s the default 32-deep lane fills in 32 ms, and
	// on a shared two-core host the dispatcher is now and then
	// descheduled that long (CPU steal): a handful of refusals in one
	// run and none in the next. A queue of half a second of arrivals
	// rides such a stall out as latency, so every request of the
	// fixed-rate run is answered.
	memnetSpec = serveSpec{
		model: "memnet", preset: core.PresetTiny, rate: 1000,
		limit: 10 * time.Millisecond, ladder: rungs(1000, 20000), examples: 256,
		queueLen: 512,
	}
)

// The engine runs the `fathom serve` defaults, but for a workload's
// queueLen; the served weights are fixed (modelSeed), so --seed
// changes only the inputs.
const (
	sessions  = 2
	maxBatch  = 8
	maxDelay  = 2 * time.Millisecond
	modelSeed = 1
	// maxErrorRate is the share of failed requests a ladder rung may
	// have and still pass.
	maxErrorRate = 0.01
)

// rungs returns the geometric ladder lo, lo*1.05, ... up to hi, each
// rung rounded to a whole rate, so a one-rung flip moves max_rate_rps
// by at most 5%.
func rungs(lo, hi float64) []float64 {
	var out []float64
	for r := lo; r <= hi; r *= 1.05 {
		out = append(out, math.Round(r))
	}
	return out
}

// servedExample is an example's input tensors next to its wire form.
type servedExample struct {
	inputs map[string]*tensor.Tensor
	example
}

// buildExamples draws n single-example inputs from the workload's
// sampler, seeded by the run seed, and encodes each as a request body.
func buildExamples(spec serveSpec, seed int64) ([]servedExample, error) {
	m, err := core.New(spec.model)
	if err != nil {
		return nil, err
	}
	if err := m.Setup(core.Config{Preset: spec.preset, Seed: seed, Batch: maxBatch}); err != nil {
		return nil, fmt.Errorf("setup %s example source: %w", spec.model, err)
	}
	ins, err := serve.Examples(m, spec.examples)
	if err != nil {
		return nil, err
	}
	out := make([]servedExample, len(ins))
	for i, in := range ins {
		wire := make(map[string]wireTensor, len(in))
		for name, t := range in {
			wire[name] = wireTensor{Shape: t.Shape(), Data: t.Data()}
		}
		body, err := json.Marshal(map[string]any{"inputs": wire})
		if err != nil {
			return nil, err
		}
		out[i] = servedExample{inputs: in, example: example{body: body}}
	}
	return out, nil
}

// newEngine is the measured set-up: model Setup, engine construction,
// and a warm-up that compiles every worker session's plan.
func newEngine(spec serveSpec, exs []servedExample) (core.Model, *serve.Engine, error) {
	m, err := core.New(spec.model)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Setup(core.Config{Preset: spec.preset, Seed: modelSeed, Batch: maxBatch}); err != nil {
		return nil, nil, fmt.Errorf("setup %s: %w", spec.model, err)
	}
	eng, err := serve.New(m, serve.Options{Sessions: sessions, MaxBatch: maxBatch, MaxDelay: maxDelay, QueueLen: spec.queueLen, Seed: modelSeed})
	if err != nil {
		return nil, nil, err
	}
	// Three rounds of two full batches: both workers pick up a batch,
	// so both sessions compile their plans before anything is timed.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2*maxBatch)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = eng.Infer(context.Background(), exs[i%len(exs)].inputs)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				eng.Close()
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return m, eng, nil
}

// setReferences runs every example alone through Engine.Infer (batch
// fill 1) and records its outputs as the reference responses must
// match.
func setReferences(eng *serve.Engine, exs []servedExample) error {
	for i := range exs {
		outs, err := eng.Infer(context.Background(), exs[i].inputs)
		if err != nil {
			return fmt.Errorf("reference %d: %w", i, err)
		}
		exs[i].ref = make(map[string][]float32, len(outs))
		for name, t := range outs {
			exs[i].ref[name] = append([]float32(nil), t.Data()...)
		}
	}
	return nil
}

// runServe measures a serving workload. The untraced run offers the
// fixed rate for the whole run: latency_p50_ms is the median over
// one-second windows of each window's median latency, from due time to
// decoded response, and train_samples_per_s is the examples answered
// per second.
func runServe(spec serveSpec, c config, res *result) error {
	served, err := buildExamples(spec, c.seed)
	if err != nil {
		return err
	}
	var m core.Model
	var eng *serve.Engine
	var setups []float64
	for began := time.Now(); moreSetups(len(setups), began); {
		if eng != nil {
			eng.Close()
		}
		t0 := setupStart()
		if m, eng, err = newEngine(spec, served); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer eng.Close()
	res.set("setup_s", median(setups))
	if err := setReferences(eng, served); err != nil {
		return err
	}
	exs := make([]example, len(served))
	for i := range served {
		exs[i] = served[i].example
	}

	srv := serve.NewServer()
	srv.Register(eng)
	h := srv.Handler()
	path := "/v1/models/" + spec.model + ":infer"
	rng := rand.New(rand.NewSource(c.seed))
	total := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		fixed := openLoop(h, path, exs, spec.rate, total, rng)
		account(res, fixed, true)
		at, lat, _ := answered(fixed)
		res.set("latency_p50_ms", windowMedian(windowed(at, lat, fixed.span, int(fixed.span/time.Second)), 0.50))
		res.set("train_samples_per_s", float64(len(lat))/fixed.span.Seconds())
		return nil
	}
	return traceServe(spec, m, eng, h, path, exs, total, rng, res)
}

// answered returns, for every answered request of p, its due offset,
// its latency and its ServeHTTP wall in milliseconds.
func answered(p phase) (at []time.Duration, latency, server []float64) {
	for _, s := range p.samples {
		if s.ok {
			at = append(at, s.due)
			latency = append(latency, ms(s.latency))
			server = append(server, ms(s.server))
		}
	}
	return at, latency, server
}

// account adds a phase's requests to the run's counts. Every
// mismatched output is a failure and a correctness problem; refusals
// count as failures only where the workload promises none (the
// fixed-rate phases), not on ladder rungs probing for overload.
func account(res *result, p phase, refusalsFail bool) {
	failed, mismatched := p.counts()
	res.attempted += len(p.samples)
	if refusalsFail {
		res.failed += failed
	} else {
		res.failed += mismatched
	}
	if mismatched > 0 {
		res.problemf("%d of %d responses differ from the single-example reference", mismatched, len(p.samples))
	}
}

// maxRate finds the highest ladder rung the server sustains (see
// rungPasses). Rungs are searched by bisection; a rung that fails is
// probed once more and counts as failed only if it fails again, so one
// noisy probe cannot send the search far below the server's capacity.
func maxRate(h http.Handler, path string, exs []example, spec serveSpec, budget time.Duration, rng *rand.Rand, res *result) float64 {
	lo, hi := -1, len(spec.ladder) // highest passing, lowest failing rung
	probes := int(math.Ceil(math.Log2(float64(len(spec.ladder) + 1))))
	probe := budget * 2 / time.Duration(3*probes) // half the probes are retried
	passes := func(rate float64) bool {
		p := openLoop(h, path, exs, rate, probe, rng)
		account(res, p, false)
		return rungPasses(p, spec.limit)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok := passes(spec.ladder[mid]) || passes(spec.ladder[mid])
		fmt.Printf("rung %7.0f/s: %v\n", spec.ladder[mid], ok)
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		fmt.Printf("note: no ladder rung was sustained, down to %.0f/s\n", spec.ladder[0])
		return 0
	}
	return spec.ladder[lo]
}

// rungPasses judges a ladder probe. The probe is split into windows
// of about 1200 requests (see tailWindows); a window passes when its
// p99 latency is within limit (a failed request counts as missing it)
// and at most 1% of its requests fail. The rate is sustained when most
// windows pass and the in-flight backlog over the last third of the
// probe exceeds that over the first third by less than one round of
// full batches. Judging by window keeps a short stall of the host from
// failing a rate the server otherwise sustains.
func rungPasses(p phase, limit time.Duration) bool {
	at := make([]time.Duration, len(p.samples))
	lat := make([]float64, len(p.samples))
	var early, late []float64
	for i, s := range p.samples {
		at[i], lat[i] = s.due, ms(s.latency)
		if !s.ok {
			lat[i] = math.Inf(1)
		}
		switch {
		case s.due < p.span/3:
			early = append(early, float64(s.inflight))
		case s.due >= p.span*2/3:
			late = append(late, float64(s.inflight))
		}
	}
	passed, judged := 0, 0
	for _, w := range windowed(at, lat, p.span, max(len(lat)/1200, 1)) {
		if len(w) == 0 {
			continue
		}
		judged++
		failed := 0
		for _, v := range w {
			if math.IsInf(v, 1) {
				failed++
			}
		}
		if quantile(w, 0.99) <= ms(limit) && float64(failed) <= maxErrorRate*float64(len(w)) {
			passed++
		}
	}
	return 2*passed > judged && mean(late) < mean(early)+sessions*maxBatch
}

// traceServe is the traced run. An untraced phase at the fixed rate
// gives the tail latencies and the ladder gives max_rate_rps; then the
// fixed rate runs through a second server on the same engine with
// every request traced, and the span trees are split into layers.
func traceServe(spec serveSpec, m core.Model, eng *serve.Engine, h http.Handler, path string, exs []example, total time.Duration, rng *rand.Rand, res *result) error {
	untraced := openLoop(h, path, exs, spec.rate, total/2, rng)
	account(res, untraced, true)
	at, untracedLatency, untracedServer := answered(untraced)
	tail := tailWindows(len(untracedLatency))
	res.set("latency_p99_ms", windowMedian(windowed(at, untracedLatency, untraced.span, tail), 0.99))
	res.set("step_p99_ms", windowMedian(windowed(at, untracedServer, untraced.span, tail), 0.99))
	res.set("max_rate_rps", maxRate(h, path, exs, spec, total/4, rng, res))

	tc := telemetry.NewTraceCollector(1, 4096)
	tsrv := serve.NewServer()
	tsrv.Register(eng)
	tsrv.EnableTelemetry(nil, tc)
	agg := newSpanAgg(m.Graph())
	eng.ResetStats()
	mon := startMonitor("engine/"+spec.model, func() {
		for _, t := range tc.Drain() {
			agg.add(t)
		}
	})
	traced := openLoop(tsrv.Handler(), path, exs, spec.rate, total/4, rng)
	busy, granted := mon.stop()
	st := eng.Stats()
	account(res, traced, true)
	if d := tc.Dropped(); d > 0 {
		res.problemf("trace ring dropped %d traces", d)
	}

	_, latency, server := answered(traced)
	var late, client []float64
	for _, s := range traced.samples {
		if s.ok {
			late = append(late, ms(s.late))
			client = append(client, ms(s.client))
		}
	}
	if agg.n != len(latency) {
		res.problemf("%d traces for %d answered requests", agg.n, len(latency))
	}
	perReq := func(d time.Duration) float64 { return ms(d) / float64(max(agg.n, 1)) }
	n := float64(len(traced.samples))
	layers := map[string]float64{
		"serve.codec_ms":        mean(server) - perReq(agg.request),
		"serve.batch_pack_ms":   perReq(agg.batch - agg.run),
		"serve.unattributed_ms": perReq(agg.request - agg.admission - agg.queue - agg.batch),
		"runtime.self_ms":       perReq(agg.run - agg.opTotal()),
		"bench.client_ms":       mean(client),
	}
	for k, v := range layers {
		res.set(k, v)
	}
	res.set("serve.admission_us", 1000*perReq(agg.admission))
	res.set("runtime.run_ms", perReq(agg.run))
	agg.setOps(res, float64(max(agg.n, 1)))
	res.set("serve.body_kb", meanBody(exs)/1024)
	res.set("serve.queue_wait_p50_ms", ms(telemetry.QuantileOf(&st.WaitHist, 0.50)))
	res.set("serve.queue_wait_p99_ms", ms(telemetry.QuantileOf(&st.WaitHist, 0.99)))
	res.set("serve.rejected_frac", float64(st.Rejected)/n)
	res.set("serve.shed_frac", float64(st.Shed)/n)
	res.set("serve.expired_frac", float64(st.Expired)/n)
	res.set("serve.batch_fill", st.MeanBatchFill)
	res.set("serve.batches_per_s", float64(st.Batches)/traced.wall.Seconds())
	res.set("runtime.arena_reuse_ratio", st.ArenaReuseRatio)
	res.set("sched.pool_busy_frac", busy)
	res.set("sched.lease_granted", granted)
	res.set("bench.gen_late_p99_ms", quantile(late, 0.99))
	res.set("bench.latency_mean_ms", mean(latency))
	res.set("bench.trace_overhead_frac", mean(latency)/mean(untracedLatency)-1)
	// Refusals on ladder rungs probe for overload; the error rate is
	// that of the fixed-rate phases.
	failedU, _ := untraced.counts()
	failedT, _ := traced.counts()
	res.set("error_rate", float64(failedU+failedT)/float64(len(untraced.samples)+len(traced.samples)))
	notExercised(res, "dist.")

	// Reconciliation: the layers' self times must add up to the traced
	// mean latency, and no derived self time may be negative (which
	// would mean the span tree no longer nests).
	sum := mean(late) + layers["serve.codec_ms"] + layers["bench.client_ms"] +
		res.metrics["serve.admission_us"]/1000 + perReq(agg.queue) +
		layers["serve.batch_pack_ms"] + perReq(agg.opTotal()) + layers["runtime.self_ms"] +
		layers["serve.unattributed_ms"]
	reconcile(res, "traced mean latency", sum, mean(latency), 0.02)
	for k, v := range layers {
		if v < -0.01*mean(latency) {
			res.problemf("layer %s has negative self time %.4f ms", k, v)
		}
	}
	return nil
}

// reconcile records a problem when the layer sum is more than the
// share tol away from the whole it should add up to.
func reconcile(res *result, what string, sum, whole, tol float64) {
	fmt.Printf("reconcile %s: layers %.4f ms, whole %.4f ms\n", what, sum, whole)
	if whole <= 0 || math.Abs(sum-whole) > tol*whole {
		res.problemf("layers sum to %.4f ms, %s is %.4f ms", sum, what, whole)
	}
}

func meanBody(exs []example) float64 {
	var n int
	for _, e := range exs {
		n += len(e.body)
	}
	return float64(n) / float64(len(exs))
}

// spanAgg folds request span trees (request -> admission, queue, batch
// -> run -> one span per op) into per-layer totals over every answered
// request.
type spanAgg struct {
	classOf map[string]graph.OpClass
	n       int // traces of answered requests
	// Summed span durations over those traces.
	request, admission, queue, batch, run time.Duration
	class                                 [graph.NumClasses]time.Duration
	kernel                                map[string]time.Duration
	calls                                 map[string]int
	unknown                               map[string]bool
}

func newSpanAgg(g *graph.Graph) *spanAgg {
	a := &spanAgg{classOf: map[string]graph.OpClass{}, kernel: map[string]time.Duration{}, calls: map[string]int{}, unknown: map[string]bool{}}
	for _, n := range g.Nodes() {
		if op := n.Op(); op != nil {
			a.classOf[n.OpName()] = op.Class()
		}
	}
	return a
}

func (a *spanAgg) add(t *telemetry.Trace) {
	spans := t.Spans()
	byName := func(parent telemetry.SpanID, name string) *telemetry.Span {
		for i := range spans {
			if spans[i].Parent == parent && spans[i].Name == name {
				return &spans[i]
			}
		}
		return nil
	}
	root := byName(0, "request")
	if root == nil {
		return
	}
	batch := byName(root.ID, "batch")
	if batch == nil {
		return // refused before execution: no batch to attribute
	}
	run := byName(batch.ID, "run")
	adm, queue := byName(root.ID, "admission"), byName(root.ID, "queue")
	if run == nil || adm == nil || queue == nil {
		return
	}
	a.n++
	a.request += root.Dur
	a.admission += adm.Dur
	a.queue += queue.Dur
	a.batch += batch.Dur
	a.run += run.Dur
	for _, s := range spans {
		if s.Parent == run.ID {
			a.op(s.Name, s.Dur)
		}
	}
}

// op records one executed op under its Fig. 3 class and its kernel.
func (a *spanAgg) op(name string, d time.Duration) {
	c, ok := a.classOf[name]
	if !ok {
		a.unknown[name] = true
		return
	}
	a.class[c] += d
	k := kernelOf(name)
	a.kernel[k] += d
	a.calls[k]++
}

func (a *spanAgg) opTotal() time.Duration {
	var s time.Duration
	for _, d := range a.class {
		s += d
	}
	return s
}

// setOps reports op time per class and per kernel, divided by units
// (requests or steps), and prints the full kernel breakdown.
func (a *spanAgg) setOps(res *result, units float64) {
	if len(a.unknown) > 0 {
		res.problemf("ops outside the model graph: %v", a.unknown)
	}
	for c, letter := range classLetters {
		res.set("ops."+letter+"_ms", ms(a.class[c])/units)
	}
	for _, k := range kernelOps {
		perCall := 0.0
		if a.calls[k] > 0 {
			perCall = float64(a.kernel[k]) / float64(time.Microsecond) / float64(a.calls[k])
		}
		res.set("tensor."+k+".us_per_call", perCall)
		res.set("tensor."+k+".calls", float64(a.calls[k])/units)
	}
	names := make([]string, 0, len(a.kernel))
	for k := range a.kernel {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return a.kernel[names[i]] > a.kernel[names[j]] })
	total := ms(a.opTotal())
	for _, k := range names {
		fmt.Printf("kernel %-24s %6.2f%% of op time, %8.2f calls/unit\n", k, 100*ms(a.kernel[k])/total, float64(a.calls[k])/units)
	}
}

// kernelOf names the kernel behind an op: graph epilogue fusion names
// a fused op after its producer and absorbed consumers ("Conv2D+Add"),
// and the producer's kernel does the work.
func kernelOf(op string) string {
	k, _, _ := strings.Cut(op, "+")
	return k
}
