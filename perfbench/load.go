package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// example is one prebuilt inference request: its JSON body and the
// outputs a single-example Engine.Infer returned for it at set-up,
// which every response must match bit for bit.
type example struct {
	body []byte
	ref  map[string][]float32
}

// sample is one request as the client saw it. All durations are from
// the request's due time or between the client's own timestamps.
type sample struct {
	due      time.Duration // due time, from the start of the phase
	late     time.Duration // due -> generator fired it
	latency  time.Duration // due -> response decoded and checked
	server   time.Duration // ServeHTTP wall
	client   time.Duration // request build + response decode
	inflight int           // requests in flight when it fired
	ok       bool          // 200 with outputs equal to the reference
	mismatch bool          // 200 whose outputs differ from the reference
}

// phase is one open-loop stretch at a fixed rate.
type phase struct {
	samples []sample
	span    time.Duration // the stretch arrivals were drawn over
	wall    time.Duration // until the last response
}

// maxInflight caps the requests the generator holds in flight. Above
// capacity an open loop would otherwise pile up goroutines and request
// buffers without bound; an arrival past the cap is never sent and
// counts as a failure. It is well above the deepest engine queue plus
// the batches in execution, so the engine, not the generator, refuses
// first.
const maxInflight = 1024

// openLoop offers Poisson arrivals at rate for span to h, one request
// per arrival, from a single generator goroutine that never waits for
// responses. Arrival times and the example each arrival sends are
// drawn from rng before the first send.
func openLoop(h http.Handler, path string, exs []example, rate float64, span time.Duration, rng *rand.Rand) phase {
	var dues []time.Duration
	var picks []int
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= span {
			break
		}
		dues = append(dues, t)
		picks = append(picks, rng.Intn(len(exs)))
	}
	p := phase{samples: make([]sample, len(dues)), span: span}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range dues {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		fire := time.Now()
		n := int(inflight.Load())
		if n >= maxInflight {
			p.samples[i] = sample{due: off, late: fire.Sub(due), latency: fire.Sub(due), inflight: n}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			s := send(h, path, &exs[picks[i]], due, fire)
			s.due, s.inflight = off, n
			p.samples[i] = s
		}(i)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// send passes one prebuilt body to the handler in-process and checks
// the decoded response against the example's reference.
func send(h http.Handler, path string, ex *example, due, fire time.Time) sample {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(ex.body))
	rec := httptest.NewRecorder()
	sent := time.Now()
	h.ServeHTTP(rec, req)
	handled := time.Now()
	s := sample{late: fire.Sub(due), server: handled.Sub(sent)}
	if rec.Code == http.StatusOK {
		if err := checkResponse(rec.Body.Bytes(), ex.ref); err != nil {
			s.mismatch = true
		} else {
			s.ok = true
		}
	}
	done := time.Now()
	s.latency = done.Sub(due)
	s.client = sent.Sub(fire) + done.Sub(handled)
	return s
}

// wireTensor is the serving layer's JSON tensor form.
type wireTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// checkResponse decodes an :infer response and compares every output
// with ref bit for bit; a missing or extra output is a mismatch.
func checkResponse(body []byte, ref map[string][]float32) error {
	var resp struct {
		Outputs map[string]wireTensor `json:"outputs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Outputs) != len(ref) {
		return fmt.Errorf("got %d outputs, want %d", len(resp.Outputs), len(ref))
	}
	for name, want := range ref {
		got, ok := resp.Outputs[name]
		if !ok || len(got.Data) != len(want) {
			return fmt.Errorf("output %q missing or mis-sized", name)
		}
		for i := range want {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
				return fmt.Errorf("output %q element %d: got %v, want %v", name, i, got.Data[i], want[i])
			}
		}
	}
	return nil
}

// counts returns how many of a phase's requests failed (refused,
// errored, never sent or mismatched) and how many of those mismatched.
func (p phase) counts() (failed, mismatched int) {
	for _, s := range p.samples {
		if !s.ok {
			failed++
		}
		if s.mismatch {
			mismatched++
		}
	}
	return failed, mismatched
}
