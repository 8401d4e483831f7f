// Overload-behavior tests: the admission layer's contract under burst
// load, dead deadlines, cancelled callers, and saturated batch lanes.
// Run with -race — admission counters, queue gauges, and the EWMA
// estimate are all racing with workers here.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestEngineQueueCapRejects pins the reject-early policy in
// isolation: with the dispatcher stopped (white box — the Engine is
// assembled by hand, nothing drains), QueueLen requests enqueue and
// the next one must fail immediately with ErrOverloaded. Deterministic
// on any scheduler, single-core included.
func TestEngineQueueCapRejects(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	e := &Engine{
		model:    m,
		sig:      m.Signature(core.ModeInference),
		maxBatch: 1,
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
		pool:     sched.Default(),
	}
	for lane := range e.lanes {
		e.lanes[lane] = make(chan *request, 2)
	}
	e.stats.reset()
	examples := sampleExamples(t, m, 3)

	queued := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := e.Infer(context.Background(), examples[i])
			queued <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().QueueDepth < 2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	if d := e.Stats().QueueDepth; d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}
	// Queue full: the next request must be refused, not blocked.
	start := time.Now()
	if _, err := e.Infer(context.Background(), examples[2]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("overloaded rejection took %v; must be immediate", d)
	}
	if s := e.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
	// Release the two queued callers the way shutdown does.
	close(e.done)
	close(e.stopped)
	for i := 0; i < 2; i++ {
		if err := <-queued; !errors.Is(err, ErrClosed) {
			t.Fatalf("queued caller %d: err = %v, want ErrClosed", i, err)
		}
	}
}

// TestEngineBurstAccounting fires 200 concurrent requests at a
// QueueLen-2, single-slot live engine under -race: whatever mix of
// completions and rejections the scheduler produces (on a single-core
// host the channel handoffs serialize the pipeline and nothing may
// overflow; on multicore the queue overflows constantly), nothing may
// block, no request may fail with anything but ErrOverloaded, and the
// counters must account for every submission exactly once.
func TestEngineBurstAccounting(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1, MaxDelay: 100 * time.Microsecond, QueueLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	examples := sampleExamples(t, m, 4)

	const n = 200
	var ok, overloaded, other atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Infer(context.Background(), examples[i%len(examples)])
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			default:
				other.Add(1)
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d requests failed with neither success nor ErrOverloaded", other.Load())
	}
	if ok.Load()+overloaded.Load() != n {
		t.Fatalf("accounting: ok %d + overloaded %d != %d", ok.Load(), overloaded.Load(), n)
	}
	s := e.Stats()
	if s.Requests != ok.Load() {
		t.Fatalf("stats requests %d != observed successes %d", s.Requests, ok.Load())
	}
	// No deadlines in play, so engine-side refusals can only be queue
	// rejections — never sheds or expiries.
	if s.Shed != 0 || s.Expired != 0 {
		t.Fatalf("deadline-free burst must not shed/expire: shed %d expired %d", s.Shed, s.Expired)
	}
	if s.Rejected != overloaded.Load() {
		t.Fatalf("stats rejected %d != observed rejections %d", s.Rejected, overloaded.Load())
	}
	if s.QueueDepth != 0 || s.Interactive.QueueDepth != 0 || s.BatchLane.QueueDepth != 0 {
		t.Fatalf("queue depth must return to 0 after the burst drains: %+v", s)
	}
}

// TestEngineExpiresQueuedDeadRequests: a request whose deadline dies
// while queued must come back ErrExpired from the dispatcher — and
// must never occupy a batch slot or skew the fill stats. DefaultDeadline
// of 1ns passes admission (the deadline is measured from the same
// instant) but is always dead by dispatch.
func TestEngineExpiresQueuedDeadRequests(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1, DefaultDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ex := sampleExamples(t, m, 1)[0]
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := e.Infer(context.Background(), ex); !errors.Is(err, ErrExpired) {
			t.Fatalf("request %d: err = %v, want ErrExpired", i, err)
		}
	}
	s := e.Stats()
	if s.Expired != n {
		t.Fatalf("expired = %d, want %d", s.Expired, n)
	}
	if s.Batches != 0 || s.MaxBatchFill != 0 || s.Requests != 0 {
		t.Fatalf("dead requests occupied batch slots: batches %d fill %d requests %d",
			s.Batches, s.MaxBatchFill, s.Requests)
	}
}

// TestEngineCancelledRequestsSkipBatches: a request whose context is
// cancelled returns context.Canceled (whether the cancellation is seen
// at admission or by the dispatcher) and never reaches execution.
func TestEngineCancelledRequestsSkipBatches(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ex := sampleExamples(t, m, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10; i++ {
		if _, err := e.Infer(ctx, ex); !errors.Is(err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, err)
		}
	}
	s := e.Stats()
	if s.Batches != 0 || s.MaxBatchFill != 0 {
		t.Fatalf("cancelled requests occupied batch slots: batches %d fill %d", s.Batches, s.MaxBatchFill)
	}
}

// TestEngineShedsOnBudgetEstimate pins the load-shedding gate: when
// the EWMA-based wait estimate exceeds a request's budget, admission
// fails fast with ErrOverloaded and counts a shed. The EWMA is planted
// directly (white box) so the decision is deterministic; the probe
// slot is consumed first — the probe exemption is tested on its own.
func TestEngineShedsOnBudgetEstimate(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1, DefaultDeadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.stats.ewmaBatchUS.Store(uint64(time.Hour / time.Microsecond))
	e.lastProbeNano.Store(time.Now().UnixNano()) // probe slot used up
	ex := sampleExamples(t, m, 1)[0]
	if _, err := e.Infer(context.Background(), ex); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if s := e.Stats(); s.Shed != 1 || s.Rejected != 0 {
		t.Fatalf("shed = %d rejected = %d, want 1/0", s.Shed, s.Rejected)
	}
	// With the estimate back to cold the same request admits: a cold
	// engine never sheds on budget.
	e.stats.ewmaBatchUS.Store(0)
	if _, err := e.Infer(context.Background(), ex); err != nil {
		t.Fatalf("cold estimate must admit: %v", err)
	}
}

// TestEngineProbeKeepsEstimateLive pins the self-healing path: with a
// poisoned-high EWMA every deadlined request would shed forever (the
// estimate only refreshes when batches run). The rationed probe
// admission must let one request through to execution, pulling the
// EWMA back toward reality.
func TestEngineProbeKeepsEstimateLive(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1, DefaultDeadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ex := sampleExamples(t, m, 1)[0]
	if _, err := e.Infer(context.Background(), ex); err != nil { // warm plan cache
		t.Fatal(err)
	}
	poisoned := uint64(time.Hour / time.Microsecond)
	e.stats.ewmaBatchUS.Store(poisoned)
	e.lastProbeNano.Store(0) // a probe is due immediately
	if _, err := e.Infer(context.Background(), ex); err != nil {
		t.Fatalf("probe request must execute, got %v", err)
	}
	if got := e.stats.ewmaBatchUS.Load(); got >= poisoned {
		t.Fatalf("probe did not refresh the EWMA: still %d µs", got)
	}
}

// TestEnginePriorityInteractiveOvertakesBatch is the starvation check:
// with the batch lane saturated, an interactive request must jump the
// queue (strict interactive-first dispatch) instead of waiting behind
// the backlog.
func TestEnginePriorityInteractiveOvertakesBatch(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	// Stall the dispatch loop on demand. On a warm machine one memnet
	// execution is far faster than goroutine submission, so without a
	// stall the single-session engine drains every batch request as it
	// arrives and a backlog never builds — the stall parks the
	// dispatcher at the top of its loop while the test queues a
	// deterministic backlog.
	var stallArmed atomic.Bool
	stall := make(chan struct{})
	var stallOnce sync.Once
	release := func() { stallOnce.Do(func() { close(stall) }) }
	testHookDispatch = func() {
		if stallArmed.Load() {
			<-stall
		}
	}
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1, MaxDelay: 100 * time.Microsecond, QueueLen: 64})
	if err != nil {
		testHookDispatch = nil
		t.Fatal(err)
	}
	defer func() { testHookDispatch = nil }() // after Close has joined the dispatch loop
	defer e.Close()
	defer release() // before Close: a stalled dispatcher cannot shut down
	examples := sampleExamples(t, m, 4)
	if _, err := e.Infer(context.Background(), examples[0]); err != nil { // warm plan cache
		t.Fatal(err)
	}
	stallArmed.Store(true)

	const nBatch = 64
	var batchDone atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < nBatch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.InferPriority(context.Background(), examples[i%len(examples)], PriorityBatch); err != nil {
				t.Error(err)
			}
			batchDone.Add(1)
		}(i)
	}
	waitFor := func(what string, cond func(Stats) bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond(e.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s; stats: %v", what, e.Stats())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// The dispatcher was parked waiting for work before the stall was
	// armed, so it may pull (and run) the first request on its way to
	// the stall; every later one must queue. Once the backlog is up,
	// put an interactive request in its lane, then let dispatch go:
	// strict interactive-first dequeue must serve it ahead of the
	// whole batch backlog.
	waitFor("batch backlog never built", func(s Stats) bool {
		return s.BatchLane.QueueDepth >= nBatch-1
	})
	interDone := make(chan error, 1)
	go func() {
		_, err := e.Infer(context.Background(), examples[0])
		interDone <- err
	}()
	waitFor("interactive request never queued", func(s Stats) bool {
		return s.Interactive.QueueDepth == 1
	})
	release()
	if err := <-interDone; err != nil {
		t.Fatalf("interactive request failed under batch saturation: %v", err)
	}
	overtaken := nBatch - batchDone.Load()
	wg.Wait()
	if overtaken == 0 {
		t.Fatal("interactive request finished after the entire batch backlog; priority lanes are broken")
	}
	s := e.Stats()
	if s.BatchLane.Requests != nBatch || s.Interactive.Requests != 2 {
		t.Fatalf("lane counters: interactive %d batch %d, want 2/%d",
			s.Interactive.Requests, s.BatchLane.Requests, nBatch)
	}
}

// TestStatsJSONCarriesAdmissionFields: the /stats wire format exposes
// the new admission counters, queue gauges, and p999 — per engine and
// per lane.
func TestStatsJSONCarriesAdmissionFields(t *testing.T) {
	out, err := json.Marshal(Stats{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"rejected", "shed", "expired", "p999_latency_ns",
		"queue_depth", "queue_wait_ewma_ns", "batch_latency_ewma_ns",
		"interactive", "batch",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("stats JSON misses %q: %s", key, out)
		}
	}
	lane, ok := m["interactive"].(map[string]any)
	if !ok {
		t.Fatalf("interactive lane is not an object: %s", out)
	}
	for _, key := range []string{"requests", "queue_depth", "p50_latency_ns", "p99_latency_ns", "p999_latency_ns"} {
		if _, ok := lane[key]; !ok {
			t.Fatalf("lane JSON misses %q: %s", key, out)
		}
	}
}

// postInfer sends one inference request and returns the HTTP status
// and decoded error body (code empty on 200).
func postInfer(t *testing.T, url, model, body string) (int, jsonError) {
	t.Helper()
	resp, err := http.Post(url+"/v1/models/"+model+":infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var je jsonError
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&je); err != nil {
			t.Fatalf("error response is not the JSON contract: %v", err)
		}
		if je.Code == "" {
			t.Fatalf("error response carries no code (status %d)", resp.StatusCode)
		}
	}
	return resp.StatusCode, je
}

// TestFromJSONTensorShapeChecks: a wire shape must match its data
// exactly, and no dimension list may pass by overflowing the element
// count.
func TestFromJSONTensorShapeChecks(t *testing.T) {
	cases := []struct {
		name  string
		shape []int
		n     int // len(data)
		ok    bool
	}{
		{"matching", []int{2, 3}, 6, true},
		{"scalar", []int{}, 1, true},
		{"too few values", []int{2, 3}, 5, false},
		{"too many values", []int{2, 3}, 7, false},
		{"overflow to zero", []int{1 << 32, 1 << 32}, 0, false},
		{"overflow to the data length", []int{1<<62 + 1, 4}, 4, false},
		{"zero dimension", []int{0, 3}, 0, false},
		{"negative dimension", []int{-1, 2}, 2, false},
		{"negative pair", []int{-2, -2}, 4, false},
	}
	for _, c := range cases {
		tt, err := fromJSONTensor(jsonTensor{Shape: c.shape, Data: make([]float32, c.n)})
		if c.ok != (err == nil) {
			t.Fatalf("%s: shape %v with %d values: err %v, want ok=%v", c.name, c.shape, c.n, err, c.ok)
		}
		if c.ok && tt.Size() != c.n {
			t.Fatalf("%s: size %d, want %d", c.name, tt.Size(), c.n)
		}
	}
}

// TestHTTPErrorContract drives each machine-readable error code end to
// end: invalid_input, overloaded (+Retry-After), deadline_exceeded,
// and closed.
func TestHTTPErrorContract(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1, DefaultDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := NewServer()
	srv.Register(e)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ex := sampleExamples(t, m, 1)[0]
	good, _ := json.Marshal(inferRequest{Inputs: map[string]jsonTensor{
		"stories": toJSONTensor(ex["stories"]),
		"query":   toJSONTensor(ex["query"]),
	}})

	if status, je := postInfer(t, ts.URL, "memnet", `{"inputs":{},"priority":"bogus"}`); status != http.StatusBadRequest || je.Code != CodeInvalidInput {
		t.Fatalf("bad priority: status %d code %q, want 400 %q", status, je.Code, CodeInvalidInput)
	}
	if status, je := postInfer(t, ts.URL, "memnet", `{"inputs":{}}`); status != http.StatusBadRequest || je.Code != CodeInvalidInput {
		t.Fatalf("missing inputs: status %d code %q, want 400 %q", status, je.Code, CodeInvalidInput)
	}

	// Overloaded: plant a wait estimate far past the deadline budget
	// (and use up the probe slot so the shed is deterministic).
	e.stats.ewmaBatchUS.Store(uint64(time.Hour / time.Microsecond))
	e.lastProbeNano.Store(time.Now().UnixNano())
	resp, err := http.Post(ts.URL+"/v1/models/memnet:infer", "application/json", strings.NewReader(string(good)))
	if err != nil {
		t.Fatal(err)
	}
	var je jsonError
	if err := json.NewDecoder(resp.Body).Decode(&je); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || je.Code != CodeOverloaded {
		t.Fatalf("overload: status %d code %q, want 503 %q", resp.StatusCode, je.Code, CodeOverloaded)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("503 must carry a Retry-After of at least 1s, got %q", resp.Header.Get("Retry-After"))
	}
	e.stats.ewmaBatchUS.Store(0) // estimate back to cold

	// Deadline exceeded: a 1ns engine deadline is always dead by
	// dispatch (same mechanism as TestEngineExpiresQueuedDeadRequests).
	m2 := buildModel(t, "alexnet", 1)
	e2, err := New(m2, Options{Sessions: 1, MaxBatch: 1, DefaultDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	srv2 := NewServer()
	srv2.Register(e2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	ex2 := sampleExamples(t, m2, 1)[0]
	good2, _ := json.Marshal(inferRequest{Inputs: map[string]jsonTensor{
		"images": toJSONTensor(ex2["images"]),
	}})
	if status, je := postInfer(t, ts2.URL, "alexnet", string(good2)); status != http.StatusGatewayTimeout || je.Code != CodeDeadlineExceeded {
		t.Fatalf("expiry: status %d code %q, want 504 %q", status, je.Code, CodeDeadlineExceeded)
	}

	// Closed: a shut-down engine refuses with its own code.
	e2.Close()
	if status, je := postInfer(t, ts2.URL, "alexnet", string(good2)); status != http.StatusServiceUnavailable || je.Code != CodeClosed {
		t.Fatalf("closed: status %d code %q, want 503 %q", status, je.Code, CodeClosed)
	}
}
