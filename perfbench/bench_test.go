package main

import "testing"

// TestSmoke runs every workload briefly, untraced and traced, and
// fails if a metric BENCHMARK.json names is missing or not finite, or
// if any output mismatched its reference. Run from this directory:
//
//	go test -run TestSmoke .
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			if err := checkDeclared("../BENCHMARK.json", want, traced); err != nil {
				t.Fatal(err)
			}
			res := &result{metrics: map[string]float64{}}
			if err := measure(config{workload: name, seed: 7, seconds: 2, trace: traced}, res); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if err := emit(res, want); err != nil || res.failed > 0 {
				t.Errorf("%s trace=%v: %v (%d of %d failed)", name, traced, err, res.failed, res.attempted)
			}
		}
	}
}
