// Package loadgen is the suite's open-loop traffic harness: it drives
// a serve.Engine at a target arrival rate — independent of how fast
// the engine answers, which is what makes overload visible — and
// reports goodput, shed rate, and latency quantiles per priority
// lane.
//
// # Open loop, closed loop
//
// A closed-loop client waits for each response before sending the
// next request, so an overloaded server silently throttles its own
// load generator and the measured latency stays flat while throughput
// quietly collapses. The harness is open-loop instead: arrivals are
// drawn from a seeded Poisson (exponential inter-arrivals) or uniform
// process at the configured QPS and submitted on their schedule
// whether or not earlier requests have completed. Under 2× capacity
// this exposes exactly the behavior the serving layer's admission
// control exists for: the engine must reject early and keep goodput
// near capacity, not queue unboundedly.
//
// The arrival schedule, lane choice, and example choice are all
// driven by one seeded RNG, so a run's offered traffic is
// reproducible bit-for-bit; only the measured outcomes vary with the
// host. A capacity-relative sweep (Stages at 0.5×/1×/2× of
// EstimateCapacity's measurement) is the shape `fathom loadtest`
// reports.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Arrival selects the inter-arrival distribution.
type Arrival int

const (
	// Poisson draws exponential inter-arrival times (a memoryless
	// open-loop stream, the standard serving-benchmark model).
	Poisson Arrival = iota
	// Uniform spaces arrivals exactly 1/QPS apart.
	Uniform
)

// String names the distribution for reports.
func (a Arrival) String() string {
	if a == Uniform {
		return "uniform"
	}
	return "poisson"
}

// ParseArrival maps the CLI names to an Arrival.
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "", "poisson":
		return Poisson, nil
	case "uniform":
		return Uniform, nil
	}
	return 0, fmt.Errorf("loadgen: unknown arrival distribution %q (want poisson or uniform)", s)
}

// Stage is one segment of the ramp schedule: offered QPS held for
// Duration.
type Stage struct {
	Name     string
	QPS      float64
	Duration time.Duration
}

// Engine is the surface the harness drives; *serve.Engine satisfies
// it.
type Engine interface {
	InferPriority(ctx context.Context, inputs map[string]*tensor.Tensor, pri serve.Priority) (map[string]*tensor.Tensor, error)
	Stats() serve.Stats
}

// Config parameterizes a run.
type Config struct {
	// Stages is the ramp schedule, run in order (required).
	Stages []Stage
	// Arrival selects the inter-arrival distribution (default
	// Poisson).
	Arrival Arrival
	// Seed drives the arrival schedule, lane mix, and example choice;
	// the same seed offers bit-identical traffic.
	Seed int64
	// BatchFrac is the fraction of requests submitted on the batch
	// lane (0 = all interactive, 1 = all batch).
	BatchFrac float64
	// Deadline is the per-request context deadline; zero relies on
	// the engine's DefaultDeadline alone. Goodput counts completions
	// within this budget.
	Deadline time.Duration
	// MaxInFlight is the harness's own safety valve (default 4096):
	// arrivals beyond it are counted as dropped rather than spawning
	// unbounded goroutines. With a functioning admission layer it
	// should never engage — a nonzero Dropped count in a report is
	// itself a finding.
	MaxInFlight int
}

// LaneReport aggregates one lane's caller-observed outcomes in a
// stage.
type LaneReport struct {
	Sent       uint64
	OK         uint64
	Overloaded uint64 // rejected or shed (serve.ErrOverloaded)
	Expired    uint64 // deadline exceeded (serve.ErrExpired)
	Errors     uint64
	MeanMS     float64
	P50MS      float64
	P99MS      float64
	P999MS     float64
	MaxMS      float64
}

// StageReport is one stage's measurement.
type StageReport struct {
	Name       string
	OfferedQPS float64
	Sent       uint64
	Dropped    uint64 // harness valve, not engine shedding

	// AchievedQPS counts every successful completion; GoodputQPS only
	// those inside the deadline budget — the number overload must not
	// collapse. ShedRate is the fraction of sent requests the engine
	// refused (overloaded) or expired.
	AchievedQPS float64
	GoodputQPS  float64
	ShedRate    float64

	// Engine-side counter deltas over the stage (admission's own
	// view: queue-full rejections vs budget sheds vs expiries).
	EngineRejected uint64
	EngineShed     uint64
	EngineExpired  uint64

	// Queue-wait quantiles of this stage's dispatched requests,
	// computed from the engine wait-histogram delta across the stage —
	// the queueing share of the end-to-end latencies above, so sweeps
	// separate time-in-queue from execution time.
	QueueWaitP50MS  float64
	QueueWaitP99MS  float64
	QueueWaitP999MS float64

	Interactive LaneReport
	Batch       LaneReport
}

// Report is a full run: the arrival process and each stage of the
// ramp schedule.
type Report struct {
	Arrival string
	Stages  []StageReport
}

// laneCollector accumulates one lane's outcomes; latencies are kept
// exact (the harness sees thousands of samples, not millions) so the
// quantiles are not bucketed.
type laneCollector struct {
	mu         sync.Mutex
	lat        []time.Duration
	good       uint64
	overloaded atomic.Uint64
	expired    atomic.Uint64
	errored    atomic.Uint64
	sent       atomic.Uint64
}

func (c *laneCollector) ok(d time.Duration, withinDeadline bool) {
	c.mu.Lock()
	c.lat = append(c.lat, d)
	if withinDeadline {
		c.good++
	}
	c.mu.Unlock()
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (c *laneCollector) report() (LaneReport, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lr := LaneReport{
		Sent:       c.sent.Load(),
		OK:         uint64(len(c.lat)),
		Overloaded: c.overloaded.Load(),
		Expired:    c.expired.Load(),
		Errors:     c.errored.Load(),
	}
	if len(c.lat) > 0 {
		sort.Slice(c.lat, func(i, j int) bool { return c.lat[i] < c.lat[j] })
		var sum time.Duration
		for _, d := range c.lat {
			sum += d
		}
		q := func(q float64) float64 {
			i := int(q * float64(len(c.lat)))
			if i >= len(c.lat) {
				i = len(c.lat) - 1
			}
			return durMS(c.lat[i])
		}
		lr.MeanMS = durMS(sum / time.Duration(len(c.lat)))
		lr.P50MS = q(0.50)
		lr.P99MS = q(0.99)
		lr.P999MS = q(0.999)
		lr.MaxMS = durMS(c.lat[len(c.lat)-1])
	}
	return lr, c.good
}

// Run drives the engine through cfg's ramp schedule, cycling over the
// given single-example input sets, and returns the per-stage report.
// The in-flight requests of each stage are joined before the next
// stage starts, so stage metrics do not bleed into each other.
func Run(e Engine, examples []map[string]*tensor.Tensor, cfg Config) (Report, error) {
	if len(cfg.Stages) == 0 {
		return Report{}, errors.New("loadgen: no stages")
	}
	if len(examples) == 0 {
		return Report{}, errors.New("loadgen: no examples")
	}
	for _, st := range cfg.Stages {
		if st.QPS <= 0 || st.Duration <= 0 {
			return Report{}, fmt.Errorf("loadgen: stage %q needs positive QPS and duration", st.Name)
		}
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	rep := Report{Arrival: cfg.Arrival.String()}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var inflight atomic.Int64
	for _, st := range cfg.Stages {
		rep.Stages = append(rep.Stages, runStage(e, examples, cfg, st, rng, &inflight))
	}
	return rep, nil
}

func runStage(e Engine, examples []map[string]*tensor.Tensor, cfg Config, st Stage, rng *rand.Rand, inflight *atomic.Int64) StageReport {
	var lanes [2]laneCollector
	var dropped atomic.Uint64
	before := e.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	// The arrival clock is an offset from the stage start; sleeping to
	// each arrival's absolute target time (rather than for the
	// inter-arrival gap) keeps the offered rate honest even when the
	// scheduler goroutine is briefly descheduled.
	var offset time.Duration
	for {
		var gap time.Duration
		if cfg.Arrival == Uniform {
			gap = time.Duration(float64(time.Second) / st.QPS)
		} else {
			gap = time.Duration(rng.ExpFloat64() * float64(time.Second) / st.QPS)
		}
		offset += gap
		if offset > st.Duration {
			break
		}
		lane := serve.PriorityInteractive
		if rng.Float64() < cfg.BatchFrac {
			lane = serve.PriorityBatch
		}
		ex := examples[rng.Intn(len(examples))]
		if wait := time.Until(start.Add(offset)); wait > 0 {
			time.Sleep(wait)
		}
		if inflight.Load() >= int64(cfg.MaxInFlight) {
			dropped.Add(1)
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		c := &lanes[lane]
		c.sent.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			ctx := context.Background()
			if cfg.Deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
				defer cancel()
			}
			t0 := time.Now()
			_, err := e.InferPriority(ctx, ex, lane)
			d := time.Since(t0)
			switch {
			case err == nil:
				c.ok(d, cfg.Deadline <= 0 || d <= cfg.Deadline)
			case errors.Is(err, serve.ErrOverloaded):
				c.overloaded.Add(1)
			case errors.Is(err, serve.ErrExpired) || errors.Is(err, context.DeadlineExceeded):
				c.expired.Add(1)
			default:
				c.errored.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after := e.Stats()
	sr := StageReport{
		Name:           st.Name,
		OfferedQPS:     st.QPS,
		Dropped:        dropped.Load(),
		EngineRejected: after.Rejected - before.Rejected,
		EngineShed:     after.Shed - before.Shed,
		EngineExpired:  after.Expired - before.Expired,
	}
	// Stage-local queue-wait quantiles: the wait histogram is
	// cumulative, so the bucket delta across the stage is exactly the
	// requests this stage dispatched.
	var waitDelta [telemetry.LogBuckets]uint64
	for i := range waitDelta {
		waitDelta[i] = after.WaitHist[i] - before.WaitHist[i]
	}
	sr.QueueWaitP50MS = durMS(telemetry.QuantileOf(&waitDelta, 0.50))
	sr.QueueWaitP99MS = durMS(telemetry.QuantileOf(&waitDelta, 0.99))
	sr.QueueWaitP999MS = durMS(telemetry.QuantileOf(&waitDelta, 0.999))
	var good uint64
	sr.Interactive, good = lanes[serve.PriorityInteractive].report()
	bGood := uint64(0)
	sr.Batch, bGood = lanes[serve.PriorityBatch].report()
	good += bGood
	sr.Sent = sr.Interactive.Sent + sr.Batch.Sent
	if secs := wall.Seconds(); secs > 0 {
		sr.AchievedQPS = float64(sr.Interactive.OK+sr.Batch.OK) / secs
		sr.GoodputQPS = float64(good) / secs
	}
	if sr.Sent > 0 {
		refused := sr.Interactive.Overloaded + sr.Batch.Overloaded +
			sr.Interactive.Expired + sr.Batch.Expired
		sr.ShedRate = float64(refused) / float64(sr.Sent)
	}
	return sr
}

// EstimateCapacity measures the engine's saturated throughput with a
// short closed loop: `clients` goroutines (size it ≈ sessions ×
// MaxBatch so every batch slot can fill) submit back-to-back
// interactive requests for dur, and the completion rate is the
// capacity estimate a ramp schedule's stages scale against.
func EstimateCapacity(e Engine, examples []map[string]*tensor.Tensor, clients int, dur time.Duration) (float64, error) {
	if len(examples) == 0 {
		return 0, errors.New("loadgen: no examples")
	}
	if clients < 1 {
		clients = 1
	}
	if dur <= 0 {
		dur = 500 * time.Millisecond
	}
	var ok, failed atomic.Uint64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ex := examples[c%len(examples)]
			for time.Now().Before(deadline) {
				if _, err := e.InferPriority(context.Background(), ex, serve.PriorityInteractive); err == nil {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	n := ok.Load()
	if n == 0 {
		return 0, fmt.Errorf("loadgen: capacity probe completed no requests (%d failures)", failed.Load())
	}
	return float64(n) / dur.Seconds(), nil
}

// CapacityStages is the standard 0.5×/1×/2× sweep around a measured
// capacity: under-load, saturation, and sustained overload — the
// three regimes `fathom loadtest` reports.
func CapacityStages(capacityQPS float64, dur time.Duration) []Stage {
	return []Stage{
		{Name: "0.5x", QPS: 0.5 * capacityQPS, Duration: dur},
		{Name: "1x", QPS: capacityQPS, Duration: dur},
		{Name: "2x", QPS: 2 * capacityQPS, Duration: dur},
	}
}
