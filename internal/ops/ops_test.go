package ops

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/tensor"
)

func runOne(t *testing.T, n *graph.Node, feeds runtime.Feeds) *tensor.Tensor {
	t.Helper()
	s := runtime.NewSession(n.Graph(), runtime.WithSeed(3))
	s.SetTraining(true)
	out, err := s.Run([]*graph.Node{n}, feeds)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

func TestCrossEntropyKnownValue(t *testing.T) {
	g := graph.New()
	// Uniform logits over 4 classes: loss = ln 4 regardless of label.
	logits := g.Const("l", tensor.New(2, 4))
	labels := g.Const("y", tensor.FromSlice([]float32{1, 3}, 2))
	out := runOne(t, CrossEntropy(logits, labels), nil)
	if math.Abs(float64(out.Data()[0])-math.Log(4)) > 1e-5 {
		t.Fatalf("uniform CE = %v, want ln4", out.Data()[0])
	}
}

func TestCrossEntropyLabelOutOfRange(t *testing.T) {
	g := graph.New()
	logits := g.Const("l", tensor.New(1, 3))
	labels := g.Const("y", tensor.FromSlice([]float32{7}, 1))
	s := runtime.NewSession(g)
	if _, err := s.Run([]*graph.Node{CrossEntropy(logits, labels)}, nil); err == nil {
		t.Fatal("expected label range error")
	}
}

func TestSigmoidCrossEntropyKnownValue(t *testing.T) {
	g := graph.New()
	// Zero logits, targets 0.5 → per-element loss = ln 2; shape (1,3).
	logits := g.Const("l", tensor.New(1, 3))
	targets := g.Const("t", tensor.Full(0.5, 1, 3))
	out := runOne(t, SigmoidCrossEntropy(logits, targets), nil)
	if math.Abs(float64(out.Data()[0])-3*math.Log(2)) > 1e-5 {
		t.Fatalf("BCE = %v, want 3·ln2", out.Data()[0])
	}
}

// bruteForceCTC enumerates all alignment paths of length T over K
// symbols and sums probabilities of those that collapse to the label.
func bruteForceCTC(probs [][]float64, label []int, blank int) float64 {
	T := len(probs)
	K := len(probs[0])
	var total float64
	path := make([]int, T)
	var rec func(t int, p float64)
	collapse := func(path []int) []int {
		var out []int
		prev := -1
		for _, s := range path {
			if s != prev && s != blank {
				out = append(out, s)
			}
			prev = s
		}
		return out
	}
	rec = func(t int, p float64) {
		if t == T {
			c := collapse(path)
			if len(c) == len(label) {
				same := true
				for i := range c {
					if c[i] != label[i] {
						same = false
						break
					}
				}
				if same {
					total += p
				}
			}
			return
		}
		for k := 0; k < K; k++ {
			path[t] = k
			rec(t+1, p*probs[t][k])
		}
	}
	rec(0, 1)
	return total
}

func TestCTCLossMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	T, B, K := 4, 1, 3
	g := graph.New()
	logitsT := tensor.RandNormal(rng, 0, 1, T, B, K)
	logits := g.Const("logits", logitsT)
	labels := g.Const("labels", tensor.FromSlice([]float32{0, 1, -1}, 1, 3))
	out := runOne(t, CTCLoss(logits, labels), nil)

	// Reference: softmax rows then brute-force path enumeration.
	probs := make([][]float64, T)
	for tt := 0; tt < T; tt++ {
		probs[tt] = make([]float64, K)
		var m float64 = -1e30
		for k := 0; k < K; k++ {
			if v := float64(logitsT.At(tt, 0, k)); v > m {
				m = v
			}
		}
		var sum float64
		for k := 0; k < K; k++ {
			probs[tt][k] = math.Exp(float64(logitsT.At(tt, 0, k)) - m)
			sum += probs[tt][k]
		}
		for k := 0; k < K; k++ {
			probs[tt][k] /= sum
		}
	}
	p := bruteForceCTC(probs, []int{0, 1}, K-1)
	want := -math.Log(p)
	if math.Abs(float64(out.Data()[0])-want) > 1e-4 {
		t.Fatalf("CTC loss = %v, brute force %v", out.Data()[0], want)
	}
}

func TestCTCImpossibleAlignment(t *testing.T) {
	// T=1 but label needs 2 symbols → no valid path → large loss.
	g := graph.New()
	logits := g.Const("logits", tensor.New(1, 1, 3))
	labels := g.Const("labels", tensor.FromSlice([]float32{0, 1}, 1, 2))
	out := runOne(t, CTCLoss(logits, labels), nil)
	if out.Data()[0] < 1e3 {
		t.Fatalf("impossible alignment should yield large loss, got %v", out.Data()[0])
	}
}

func TestApplySGD(t *testing.T) {
	g := graph.New()
	v := g.Variable("v", tensor.FromSlice([]float32{1, 2}, 2))
	grad := g.Const("g", tensor.FromSlice([]float32{0.5, -0.5}, 2))
	up := ApplySGD(v, grad, []float32{0.1})
	runOne(t, up, nil)
	want := []float32{0.95, 2.05}
	for i := range want {
		if math.Abs(float64(v.Value().Data()[i]-want[i])) > 1e-6 {
			t.Fatalf("SGD update = %v want %v", v.Value().Data(), want)
		}
	}
}

func TestApplyMomentumAccumulates(t *testing.T) {
	g := graph.New()
	v := g.Variable("v", tensor.New(1))
	grad := g.Const("g", tensor.FromSlice([]float32{1}, 1))
	up := ApplyMomentum(v, grad, []float32{0.1}, 0.9)
	s := runtime.NewSession(g)
	s.MustRun([]*graph.Node{up}, nil) // vel=1, v=-0.1
	s.MustRun([]*graph.Node{up}, nil) // vel=1.9, v=-0.29
	if math.Abs(float64(v.Value().Data()[0])+0.29) > 1e-5 {
		t.Fatalf("momentum after 2 steps = %v want -0.29", v.Value().Data()[0])
	}
}

func TestApplyRMSPropNormalizesStepSize(t *testing.T) {
	g := graph.New()
	v := g.Variable("v", tensor.New(2))
	grad := g.Const("g", tensor.FromSlice([]float32{100, 0.01}, 2))
	up := ApplyRMSProp(v, grad, []float32{0.01}, 0.9, 1e-10)
	s := runtime.NewSession(g)
	s.MustRun([]*graph.Node{up}, nil)
	d := v.Value().Data()
	// Both coordinates should move ≈ lr/sqrt(1-decay) regardless of
	// gradient magnitude.
	ratio := float64(d[0] / d[1])
	if math.Abs(ratio-1) > 0.01 {
		t.Fatalf("RMSProp steps should be scale-free: %v (ratio %v)", d, ratio)
	}
}

func TestApplyAdamBiasCorrection(t *testing.T) {
	g := graph.New()
	v := g.Variable("v", tensor.New(1))
	grad := g.Const("g", tensor.FromSlice([]float32{1}, 1))
	up := ApplyAdam(v, grad, []float32{0.1}, 0.9, 0.999, 1e-8)
	s := runtime.NewSession(g)
	s.MustRun([]*graph.Node{up}, nil)
	// First Adam step with constant gradient moves by ≈ lr.
	if math.Abs(float64(v.Value().Data()[0])+0.1) > 1e-3 {
		t.Fatalf("first Adam step = %v want ≈ -0.1", v.Value().Data()[0])
	}
}

func TestDropoutTrainingAndInference(t *testing.T) {
	g := graph.New()
	x := g.Const("x", tensor.Ones(1000))
	d := Dropout(x, 0.5)
	s := runtime.NewSession(g, runtime.WithSeed(5))
	s.SetTraining(true)
	out := s.MustRun([]*graph.Node{d}, nil)[0]
	zeros, twos := 0, 0
	for _, v := range out.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("inverted dropout should emit 0 or 1/keep, got %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout rate ~0.5 expected, got %d/1000 zeros", zeros)
	}
	if zeros+twos != 1000 {
		t.Fatal("dropout element count mismatch")
	}
	s.SetTraining(false)
	out = s.MustRun([]*graph.Node{d}, nil)[0]
	for _, v := range out.Data() {
		if v != 1 {
			t.Fatalf("inference dropout must be identity, got %v", v)
		}
	}
}

func TestDropoutGradUsesSameMask(t *testing.T) {
	g := graph.New()
	x := g.Variable("x", tensor.Ones(100))
	d := Dropout(x, 0.5)
	loss := Sum(d)
	grads, err := graph.Gradients(loss, []*graph.Node{x})
	if err != nil {
		t.Fatal(err)
	}
	s := runtime.NewSession(g, runtime.WithSeed(6))
	s.SetTraining(true)
	outs := s.MustRun([]*graph.Node{d, grads[0]}, nil)
	fw, gd := outs[0].Data(), outs[1].Data()
	for i := range fw {
		if (fw[i] == 0) != (gd[i] == 0) {
			t.Fatalf("gradient mask differs from forward mask at %d: fw=%v gd=%v", i, fw[i], gd[i])
		}
	}
}

func TestRandomOpsDeterministicBySeed(t *testing.T) {
	g := graph.New()
	n := RandomStandardNormal(g, 4, 4)
	u := RandomUniform(g, 4, 4)
	run := func(seed int64) ([]float32, []float32) {
		s := runtime.NewSession(g, runtime.WithSeed(seed))
		out := s.MustRun([]*graph.Node{n, u}, nil)
		return out[0].Data(), out[1].Data()
	}
	a1, b1 := run(9)
	a2, b2 := run(9)
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatal("same seed must reproduce random tensors")
		}
	}
	a3, _ := run(10)
	same := true
	for i := range a1 {
		if a1[i] != a3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestRandomUniformRange(t *testing.T) {
	g := graph.New()
	u := RandomUniform(g, 1000)
	out := runOne(t, u, nil)
	for _, v := range out.Data() {
		if v < 0 || v >= 1 {
			t.Fatalf("uniform sample out of range: %v", v)
		}
	}
}

func TestLRNKnownValue(t *testing.T) {
	// Single cell, one channel: y = x / (k + α/n·x²)^β.
	g := graph.New()
	x := g.Const("x", tensor.FromSlice([]float32{2}, 1, 1, 1, 1))
	out := runOne(t, LRN(x, 1, 2, 1, 0.5), nil)
	want := 2 / math.Sqrt(2+4)
	if math.Abs(float64(out.Data()[0])-want) > 1e-5 {
		t.Fatalf("LRN = %v want %v", out.Data()[0], want)
	}
}

func TestLRNInvPowMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, beta := range []float64{0.5, 0.75} {
		for i := 0; i < 10000; i++ {
			scale := math.Exp(rng.Float64()*16 - 8) // e^-8 .. e^8
			want := math.Pow(scale, -beta)
			if rel := math.Abs(lrnInvPow(scale, beta)-want) / want; rel > 1e-6 {
				t.Fatalf("scale %g β %g: exp/log %g vs pow %g (rel %g)", scale, beta, lrnInvPow(scale, beta), want, rel)
			}
		}
	}
}

// TestLRNBitIdenticalAcrossWidths runs LRN and its gradient at intra-op
// widths 1 and 4, twice each so the second run writes into arena
// slots still holding the first run's values; every result must carry
// the same bits.
func TestLRNBitIdenticalAcrossWidths(t *testing.T) {
	pool := sched.New(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(12))
	xv := tensor.RandNormal(rng, 0, 1, 8, 6, 6, 16)
	var want []*tensor.Tensor
	for _, width := range []int{1, 4} {
		g := graph.New()
		x := g.Variable("x", xv.Clone())
		y := LRN(x, 5, 2, 1e-1, 0.75)
		grads, err := graph.Gradients(weightedSum(y, rand.New(rand.NewSource(13))), []*graph.Node{x})
		if err != nil {
			t.Fatal(err)
		}
		s := runtime.NewSession(g, runtime.WithIntraOpWorkers(width), runtime.WithWorkerPool(pool))
		for run := 0; run < 2; run++ {
			got, err := s.Run([]*graph.Node{y, grads[0]}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if d := tensor.MaxAbsDiff(got[i], want[i]); d != 0 {
					t.Fatalf("width %d run %d fetch %d differs (max |Δ| %g)", width, run, i, d)
				}
			}
		}
		s.Close()
	}
}

func TestOpNamesAndClasses(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.Ones(2, 2))
	b := g.Const("b", tensor.Ones(2, 2))
	idx := g.Const("i", tensor.New(1))
	cases := []struct {
		n     *graph.Node
		name  string
		class graph.OpClass
	}{
		{MatMul(a, b), "MatMul", graph.ClassMatrix},
		{Conv2D(Reshape(a, 1, 2, 2, 1), g.Const("f", tensor.Ones(1, 1, 1, 1)), 1, 1, 0, 0), "Conv2D", graph.ClassConv},
		{Add(a, b), "Add", graph.ClassElementwise},
		{Sum(a), "Sum", graph.ClassReduction},
		{TileN(a, []int{1, 2}), "Tile", graph.ClassReduction},
		{Softmax(a), "Softmax", graph.ClassReduction},
		{RandomUniform(g, 2), "RandomUniform", graph.ClassRandom},
		{Dropout(a, 0.1), "Dropout", graph.ClassRandom},
		{ApplySGD(g.Variable("v", tensor.Ones(2, 2)), a, []float32{0.1}), "ApplyGradientDescent", graph.ClassOptimization},
		{Reshape(a, 4), "Reshape", graph.ClassDataMovement},
		{Transpose(a), "Transpose", graph.ClassDataMovement},
		{Gather(a, idx), "Gather", graph.ClassDataMovement},
		{ShapeOf(a), "Shape", graph.ClassDataMovement},
	}
	for _, c := range cases {
		if c.n.OpName() != c.name {
			t.Errorf("op name %q want %q", c.n.OpName(), c.name)
		}
		if c.n.Op().Class() != c.class {
			t.Errorf("%s class %v want %v", c.name, c.n.Op().Class(), c.class)
		}
	}
}

func TestShapeOfRuntimeValue(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.New(3, 5))
	out := runOne(t, ShapeOf(a), nil)
	if out.Data()[0] != 3 || out.Data()[1] != 5 {
		t.Fatalf("ShapeOf = %v", out.Data())
	}
}

func TestReshapeLike(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.Ones(6))
	tmpl := g.Const("t", tensor.New(2, 3))
	r := ReshapeLike(a, tmpl)
	out := runOne(t, r, nil)
	if !tensor.SameShape(out.Shape(), []int{2, 3}) {
		t.Fatalf("ReshapeLike shape %v", out.Shape())
	}
	// The graph must contain a Shape node (the dynamic-reshape pattern).
	found := false
	for _, n := range g.Nodes() {
		if n.OpName() == "Shape" {
			found = true
		}
	}
	if !found {
		t.Fatal("ReshapeLike should consume a Shape node")
	}
}

func TestGroupFetchesAllUpdates(t *testing.T) {
	g := graph.New()
	v1 := g.Variable("v1", tensor.Ones(1))
	v2 := g.Variable("v2", tensor.Ones(1))
	gr := g.Const("g", tensor.Ones(1))
	u1 := ApplySGD(v1, gr, []float32{0.5})
	u2 := ApplySGD(v2, gr, []float32{0.25})
	grp := Group(g, u1, u2)
	runOne(t, grp, nil)
	if v1.Value().Data()[0] != 0.5 || v2.Value().Data()[0] != 0.75 {
		t.Fatalf("group did not run both updates: %v %v", v1.Value().Data(), v2.Value().Data())
	}
}

func TestEqualAndLessEqual(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.FromSlice([]float32{1, 2, 3}, 3))
	b := g.Const("b", tensor.FromSlice([]float32{1, 5, 2}, 3))
	eq := runOne(t, Equal(a, b), nil)
	le := runOne(t, LessEqual(a, b), nil)
	if eq.Data()[0] != 1 || eq.Data()[1] != 0 || eq.Data()[2] != 0 {
		t.Fatalf("Equal = %v", eq.Data())
	}
	if le.Data()[0] != 1 || le.Data()[1] != 1 || le.Data()[2] != 0 {
		t.Fatalf("LessEqual = %v", le.Data())
	}
}

func TestArgMaxOp(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.FromSlice([]float32{1, 9, 3, 8, 2, 1}, 2, 3))
	out := runOne(t, ArgMax(a), nil)
	if out.Data()[0] != 1 || out.Data()[1] != 0 {
		t.Fatalf("ArgMax = %v", out.Data())
	}
}

func TestBatchMatMulForward(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.FromSlice([]float32{
		1, 2, 3, 4, // batch 0: [[1,2],[3,4]]
		5, 6, 7, 8, // batch 1
	}, 2, 2, 2))
	b := g.Const("b", tensor.FromSlice([]float32{
		1, 0, 0, 1, // identity
		2, 0, 0, 2, // 2·identity
	}, 2, 2, 2))
	out := runOne(t, BatchMatMul(a, b), nil)
	want := []float32{1, 2, 3, 4, 10, 12, 14, 16}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("BatchMatMul = %v want %v", out.Data(), want)
		}
	}
}

func TestBatchMatMulShapeErrors(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.New(2, 3, 4))
	b := g.Const("b", tensor.New(3, 4, 5))
	if _, err := g.Apply(batchMatMulOp{}, a, b); err == nil {
		t.Fatal("batch mismatch should error")
	}
	c := g.Const("c", tensor.New(2, 5, 6))
	if _, err := g.Apply(batchMatMulOp{}, a, c); err == nil {
		t.Fatal("inner-dim mismatch should error")
	}
}

func TestOneHot(t *testing.T) {
	g := graph.New()
	idx := g.Const("i", tensor.FromSlice([]float32{2, 0}, 2))
	out := runOne(t, OneHot(idx, 3), nil)
	want := []float32{0, 0, 1, 1, 0, 0}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("OneHot = %v want %v", out.Data(), want)
		}
	}
}

func TestOneHotOutOfRange(t *testing.T) {
	g := graph.New()
	idx := g.Const("i", tensor.FromSlice([]float32{5}, 1))
	n := OneHot(idx, 3)
	s := runtime.NewSession(g)
	if _, err := s.Run([]*graph.Node{n}, nil); err == nil {
		t.Fatal("out-of-range index should error at run time")
	}
}

func TestSplitPartition(t *testing.T) {
	g := graph.New()
	x := g.Const("x", tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3))
	parts := Split(x, 1, 3)
	if len(parts) != 3 {
		t.Fatalf("expected 3 parts")
	}
	for i, p := range parts {
		out := runOne(t, p, nil)
		if out.Data()[0] != float32(i+1) || out.Data()[1] != float32(i+4) {
			t.Fatalf("part %d = %v", i, out.Data())
		}
	}
}

func TestSplitUnevenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("uneven split should panic")
		}
	}()
	g := graph.New()
	Split(g.Const("x", tensor.New(2, 3)), 1, 2)
}

func TestStack(t *testing.T) {
	g := graph.New()
	a := g.Const("a", tensor.FromSlice([]float32{1, 2}, 2))
	b := g.Const("b", tensor.FromSlice([]float32{3, 4}, 2))
	out := runOne(t, Stack(a, b), nil)
	if !tensor.SameShape(out.Shape(), []int{2, 2}) || out.At(1, 0) != 3 {
		t.Fatalf("Stack = %v %v", out.Shape(), out.Data())
	}
}

func TestApplyAdagradAnnealsStepSize(t *testing.T) {
	g := graph.New()
	v := g.Variable("v", tensor.New(1))
	grad := g.Const("g", tensor.FromSlice([]float32{1}, 1))
	up := ApplyAdagrad(v, grad, []float32{0.1}, 1e-8)
	s := runtime.NewSession(g)
	s.MustRun([]*graph.Node{up}, nil)
	first := -v.Value().Data()[0] // ≈ lr
	before := v.Value().Data()[0]
	s.MustRun([]*graph.Node{up}, nil)
	second := before - v.Value().Data()[0]
	if first <= 0 || second <= 0 {
		t.Fatalf("updates should move downhill: %v %v", first, second)
	}
	if second >= first {
		t.Fatalf("AdaGrad step should shrink: first %v second %v", first, second)
	}
}

// TestApplyRateVectorUpdatesLeadingSlices: an apply-op with K learning
// rates over a (K, ...) variable updates slice k exactly as a
// one-rate op at lrs[k] updates a standalone copy of that slice, for
// every optimizer and over several steps (the slots carry state). A
// rate vector whose length is not the leading axis is refused.
func TestApplyRateVectorUpdatesLeadingSlices(t *testing.T) {
	lrs := []float32{0.1, 0.025, 0.4}
	init := []float32{1, -2, 3, 0.5, -0.5, 2, 4, -1, 0.25}
	grad := []float32{0.5, -1.5, 2, 0.1, 3, -0.7, -2, 0.9, 1.1}
	for name, apply := range map[string]func(v, g *graph.Node, lrs []float32) *graph.Node{
		"SGD":      ApplySGD,
		"Momentum": func(v, g *graph.Node, lrs []float32) *graph.Node { return ApplyMomentum(v, g, lrs, 0.9) },
		"RMSProp":  func(v, g *graph.Node, lrs []float32) *graph.Node { return ApplyRMSProp(v, g, lrs, 0.95, 0.01) },
		"Adam":     func(v, g *graph.Node, lrs []float32) *graph.Node { return ApplyAdam(v, g, lrs, 0.9, 0.999, 1e-8) },
		"Adagrad":  func(v, g *graph.Node, lrs []float32) *graph.Node { return ApplyAdagrad(v, g, lrs, 1e-8) },
	} {
		g := graph.New()
		v := g.Variable("v", tensor.FromSlice(append([]float32(nil), init...), 3, 3))
		up := apply(v, g.Const("g", tensor.FromSlice(grad, 3, 3)), lrs)
		s := runtime.NewSession(g)
		for step := 0; step < 3; step++ {
			s.MustRun([]*graph.Node{up}, nil)
		}
		for k, lr := range lrs {
			gk := graph.New()
			vk := gk.Variable("v", tensor.FromSlice(append([]float32(nil), init[3*k:3*k+3]...), 3))
			upk := apply(vk, gk.Const("g", tensor.FromSlice(grad[3*k:3*k+3], 3)), []float32{lr})
			sk := runtime.NewSession(gk)
			for step := 0; step < 3; step++ {
				sk.MustRun([]*graph.Node{upk}, nil)
			}
			for i, want := range vk.Value().Data() {
				if got := v.Value().Data()[3*k+i]; got != want {
					t.Fatalf("%s slice %d element %d = %v, standalone %v", name, k, i, got, want)
				}
			}
		}
	}
	bad := graph.New()
	bv := bad.Variable("v", tensor.New(2, 3))
	if _, err := bad.Apply(&applySGDOp{target: bv, lrs: lrs}, bad.Const("g", tensor.New(2, 3))); err == nil {
		t.Fatal("3 learning rates over leading axis 2 must be refused")
	}
}
