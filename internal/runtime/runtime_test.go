package runtime

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func buildAffine(t *testing.T) (*graph.Graph, *graph.Node, *graph.Node, *graph.Node) {
	t.Helper()
	g := graph.New()
	x := g.Placeholder("x", 2, 3)
	w := g.Variable("w", tensor.Ones(3, 4))
	b := g.Variable("b", tensor.Ones(4))
	y := ops.Add(ops.MatMul(x, w), b)
	return g, x, y, w
}

func TestSessionRunBasic(t *testing.T) {
	g, x, y, _ := buildAffine(t)
	s := NewSession(g)
	in := tensor.Ones(2, 3)
	out, err := s.Run([]*graph.Node{y}, Feeds{x: in})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out[0].Data() {
		if v != 4 { // 3·1 + 1
			t.Fatalf("affine output wrong: %v", out[0].Data())
		}
	}
	if s.Step() != 1 {
		t.Fatal("step counter should advance")
	}
}

func TestSessionMissingFeed(t *testing.T) {
	g, _, y, _ := buildAffine(t)
	s := NewSession(g)
	if _, err := s.Run([]*graph.Node{y}, nil); err == nil {
		t.Fatal("expected missing-feed error")
	}
}

func TestSessionFeedShapeMismatch(t *testing.T) {
	g, x, y, _ := buildAffine(t)
	s := NewSession(g)
	if _, err := s.Run([]*graph.Node{y}, Feeds{x: tensor.Ones(5, 5)}); err == nil {
		t.Fatal("expected feed shape error")
	}
}

func TestSessionTraceRecordsOps(t *testing.T) {
	g, x, y, _ := buildAffine(t)
	s := NewSession(g, WithTrace())
	s.MustRun([]*graph.Node{y}, Feeds{x: tensor.Ones(2, 3)})
	tr := s.Trace()
	if len(tr) != 2 {
		t.Fatalf("expected 2 op events (MatMul, Add), got %d", len(tr))
	}
	if tr[0].Op != "MatMul" || tr[0].Class != graph.ClassMatrix {
		t.Fatalf("first event %v", tr[0])
	}
	if tr[1].Op != "Add" {
		t.Fatalf("second event %v", tr[1])
	}
	// Timeline is cumulative and non-overlapping.
	if tr[1].Start < tr[0].Start+tr[0].Dur {
		t.Fatal("events must not overlap on the simulated timeline")
	}
	if s.SimTime() != tr[1].Start+tr[1].Dur {
		t.Fatal("sim clock should equal end of last event")
	}
	s.ResetTrace()
	if len(s.Trace()) != 0 || s.SimTime() != 0 {
		t.Fatal("ResetTrace should clear events and clock")
	}
}

func TestSessionNoTraceByDefault(t *testing.T) {
	g, x, y, _ := buildAffine(t)
	s := NewSession(g)
	s.MustRun([]*graph.Node{y}, Feeds{x: tensor.Ones(2, 3)})
	if s.Trace() != nil {
		t.Fatal("trace should be nil when not enabled")
	}
}

func TestSessionVariableMutationPersists(t *testing.T) {
	g := graph.New()
	v := g.Variable("v", tensor.New(2))
	grad := g.Const("g", tensor.Ones(2))
	up := ops.ApplySGD(v, grad, []float32{1})
	s := NewSession(g)
	s.MustRun([]*graph.Node{up}, nil)
	s.MustRun([]*graph.Node{up}, nil)
	if v.Value().Data()[0] != -2 {
		t.Fatalf("variable should accumulate updates, got %v", v.Value().Data())
	}
}

func TestGPUDeviceModeledTiming(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.Ones(64, 64))
	b := g.Const("b", tensor.Ones(64, 64))
	mm := ops.MatMul(a, b)
	small := ops.Add(g.Const("s1", tensor.Ones(2)), g.Const("s2", tensor.Ones(2)))

	gpu := NewGTX960()
	s := NewSession(g, WithDevice(gpu), WithTrace())
	s.MustRun([]*graph.Node{mm, small}, nil)
	tr := s.Trace()
	if len(tr) != 2 {
		t.Fatalf("expected 2 events, got %d", len(tr))
	}
	var mmDur, addDur time.Duration
	for _, e := range tr {
		switch e.Op {
		case "MatMul":
			mmDur = e.Dur
		case "Add":
			addDur = e.Dur
		}
	}
	if mmDur <= addDur {
		t.Fatalf("64×64 MatMul (%v) should be modeled slower than tiny Add (%v)", mmDur, addDur)
	}
	if addDur < gpu.Launch {
		t.Fatal("every GPU op pays at least the launch overhead")
	}
	// Modeled time must be deterministic.
	s2 := NewSession(g, WithDevice(NewGTX960()), WithTrace())
	s2.MustRun([]*graph.Node{mm, small}, nil)
	if s2.Trace()[0].Dur != tr[0].Dur {
		t.Fatal("GPU model must be deterministic")
	}
}

func TestGPUFasterThanCPUOnBigMatMul(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.Ones(128, 128))
	b := g.Const("b", tensor.Ones(128, 128))
	mm := ops.MatMul(a, b)

	cpu := NewSession(g, WithTrace())
	cpu.MustRun([]*graph.Node{mm}, nil)
	gpu := NewSession(g, WithDevice(NewGTX960()), WithTrace())
	gpu.MustRun([]*graph.Node{mm}, nil)
	if gpu.Trace()[0].Dur >= cpu.Trace()[0].Dur {
		t.Fatalf("modeled GPU (%v) should beat pure-Go CPU (%v) on a 128³ matmul",
			gpu.Trace()[0].Dur, cpu.Trace()[0].Dur)
	}
}

func TestWorkersReduceSimulatedTime(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.Ones(256, 256))
	b := g.Const("b", tensor.Ones(256, 256))
	mm := ops.MatMul(a, b)

	measure := func(workers int) time.Duration {
		s := NewSession(g, WithWorkers(workers), WithTrace())
		// Average over a few runs for stability.
		var total time.Duration
		const reps = 3
		for i := 0; i < reps; i++ {
			s.MustRun([]*graph.Node{mm}, nil)
		}
		for _, e := range s.Trace() {
			total += e.Dur
		}
		return total / reps
	}
	t1 := measure(1)
	t8 := measure(8)
	if t8 >= t1 {
		t.Fatalf("8 modeled workers (%v) should be faster than 1 (%v)", t8, t1)
	}
}

func TestSessionStepVisibleToContext(t *testing.T) {
	g := graph.New()
	c := g.Const("c", tensor.Ones(1))
	id := ops.Identity(c)
	s := NewSession(g)
	s.MustRun([]*graph.Node{id}, nil)
	s.MustRun([]*graph.Node{id}, nil)
	if s.Context().Step != 1 { // step of the most recent run
		t.Fatalf("ctx step = %d, want 1", s.Context().Step)
	}
}

func TestPlanCacheReuse(t *testing.T) {
	g, x, y, _ := buildAffine(t)
	s := NewSession(g)
	feeds := Feeds{x: tensor.Ones(2, 3)}
	s.MustRun([]*graph.Node{y}, feeds)
	if len(s.planCache) != 1 {
		t.Fatalf("plan cache should hold 1 plan, has %d", len(s.planCache))
	}
	s.MustRun([]*graph.Node{y}, feeds)
	if len(s.planCache) != 1 {
		t.Fatal("repeated fetch set must reuse the cached plan")
	}
}
