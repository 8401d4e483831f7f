package ops

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// runAll fetches several nodes in one deterministic session.
func runAll(t *testing.T, g *graph.Graph, fetch []*graph.Node, feeds runtime.Feeds) []*tensor.Tensor {
	t.Helper()
	s := runtime.NewSession(g, runtime.WithSeed(3))
	s.SetTraining(true)
	out, err := s.Run(fetch, feeds)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFusedMatMulBiasReluBitIdentical: the canonical inference
// epilogue chain relu(x·W + b) folds into one MatMul+Add+Relu kernel
// and produces the exact bits of the unfused graph — the epilogues run
// in place on the GEMM output, identical float sequence.
func TestFusedMatMulBiasReluBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	wv := tensor.RandNormal(rng, 0, 1, 17, 9)
	bv := tensor.RandNormal(rng, 0, 1, 9)
	xv := tensor.RandNormal(rng, 0, 1, 5, 17)

	build := func() (*graph.Graph, *graph.Node, *graph.Node) {
		g := graph.New()
		x := g.Placeholder("x", 5, 17)
		w := g.Variable("w", wv.Clone())
		b := g.Variable("b", bv.Clone())
		return g, x, Relu(Add(MatMul(x, w), b))
	}
	gU, xU, outU := build()
	gF, xF, outF := build()
	if fused := graph.FuseEpilogues(gF, outF); fused != 2 {
		t.Fatalf("expected MatMul to absorb Add and Relu, got %d fusions", fused)
	}
	if outF.OpName() != "MatMul+Add+Relu" {
		t.Fatalf("fused op name %q", outF.OpName())
	}
	want := runAll(t, gU, []*graph.Node{outU}, runtime.Feeds{xU: xv})[0]
	got := runAll(t, gF, []*graph.Node{outF}, runtime.Feeds{xF: xv})[0]
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("fused relu(x·W+b) differs from unfused (max |Δ| %g)", d)
	}
}

// TestFusedConv2DBiasTanhBitIdentical: the conv variant of the same
// chain — tanh(conv(x, f) + b) — through the im2col Conv2D producer,
// unit-stride and strided.
func TestFusedConv2DBiasTanhBitIdentical(t *testing.T) {
	cases := []struct {
		name        string
		x, f        []int
		stride, pad int
		seed        int64
	}{
		{"unit", []int{2, 10, 10, 4}, []int{3, 3, 4, 8}, 1, 1, 23},
		{"strided", []int{2, 32, 32, 3}, []int{11, 11, 3, 8}, 4, 2, 24},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		fv := tensor.RandNormal(rng, 0, 1, c.f...)
		bv := tensor.RandNormal(rng, 0, 1, c.f[3])
		xv := tensor.RandNormal(rng, 0, 1, c.x...)

		build := func() (*graph.Graph, *graph.Node, *graph.Node) {
			g := graph.New()
			x := g.Placeholder("x", c.x...)
			f := g.Variable("f", fv.Clone())
			b := g.Variable("b", bv.Clone())
			return g, x, Tanh(Add(Conv2D(x, f, c.stride, c.stride, c.pad, c.pad), b))
		}
		gU, xU, outU := build()
		gF, xF, outF := build()
		if fused := graph.FuseEpilogues(gF, outF); fused != 2 {
			t.Fatalf("%s: expected Conv2D to absorb Add and Tanh, got %d fusions", c.name, fused)
		}
		if outF.OpName() != "Conv2D+Add+Tanh" {
			t.Fatalf("%s: fused op name %q", c.name, outF.OpName())
		}
		want := runAll(t, gU, []*graph.Node{outU}, runtime.Feeds{xU: xv})[0]
		got := runAll(t, gF, []*graph.Node{outF}, runtime.Feeds{xF: xv})[0]
		if d := tensor.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("%s: fused tanh(conv+b) differs from unfused (max |Δ| %g)", c.name, d)
		}
	}
}

// TestTrainingFusionRespectsGradientTaps builds a training graph over
// relu(x·W+b) and checks the multi-reader gate against the backward
// pass: ReluGrad reads the pre-activation, so Relu must NOT absorb the
// Add (the pre-activation stays materialized), while the Add still
// absorbs the MatMul (its gradient reads x and W, not the product).
// Loss and gradients must stay bit-identical with fusion on.
func TestTrainingFusionRespectsGradientTaps(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	wv := tensor.RandNormal(rng, 0, 1, 7, 6)
	bv := tensor.RandNormal(rng, 0, 1, 6)
	xv := tensor.RandNormal(rng, 0, 1, 4, 7)

	build := func() (*graph.Graph, *graph.Node, *graph.Node, []*graph.Node) {
		g := graph.New()
		x := g.Placeholder("x", 4, 7)
		w := g.Variable("w", wv.Clone())
		b := g.Variable("b", bv.Clone())
		loss := Sum(Relu(Add(MatMul(x, w), b)))
		grads, err := graph.Gradients(loss, []*graph.Node{w, b})
		if err != nil {
			t.Fatal(err)
		}
		return g, x, loss, grads
	}
	gU, xU, lossU, gradsU := build()
	gF, xF, lossF, gradsF := build()
	keep := append([]*graph.Node{lossF}, gradsF...)
	if fused := graph.FuseEpilogues(gF, keep...); fused == 0 {
		t.Fatal("training graph fused nothing")
	}
	var haveMatMulAdd, haveFusedRelu bool
	for _, n := range gF.Nodes() {
		if n.Kind() != graph.KindOp {
			continue
		}
		if n.OpName() == "MatMul+Add" {
			haveMatMulAdd = true
		}
		if strings.HasSuffix(n.OpName(), "+Relu") {
			haveFusedRelu = true
		}
	}
	if !haveMatMulAdd {
		t.Fatal("MatMul+Add pre-activation fusion missing")
	}
	if haveFusedRelu {
		t.Fatal("Relu absorbed its pre-activation despite the ReluGrad tap")
	}
	want := runAll(t, gU, append([]*graph.Node{lossU}, gradsU...), runtime.Feeds{xU: xv})
	got := runAll(t, gF, append([]*graph.Node{lossF}, gradsF...), runtime.Feeds{xF: xv})
	for i := range want {
		if d := tensor.MaxAbsDiff(got[i], want[i]); d != 0 {
			t.Fatalf("fetch %d differs under training fusion (max |Δ| %g)", i, d)
		}
	}
}

// TestTrainingFusionTanhChainFusesFully: Tanh's gradient reads the
// activation node itself — which fusion preserves (the consumer node
// is mutated in place, keeping its identity) — so the whole
// MatMul+Add+Tanh chain fuses even in a training graph, and the
// backward pass still matches bit for bit.
func TestTrainingFusionTanhChainFusesFully(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	wv := tensor.RandNormal(rng, 0, 1, 7, 6)
	bv := tensor.RandNormal(rng, 0, 1, 6)
	xv := tensor.RandNormal(rng, 0, 1, 4, 7)

	build := func() (*graph.Graph, *graph.Node, *graph.Node, []*graph.Node) {
		g := graph.New()
		x := g.Placeholder("x", 4, 7)
		w := g.Variable("w", wv.Clone())
		b := g.Variable("b", bv.Clone())
		loss := Sum(Tanh(Add(MatMul(x, w), b)))
		grads, err := graph.Gradients(loss, []*graph.Node{w, b})
		if err != nil {
			t.Fatal(err)
		}
		return g, x, loss, grads
	}
	gU, xU, lossU, gradsU := build()
	gF, xF, lossF, gradsF := build()
	keep := append([]*graph.Node{lossF}, gradsF...)
	graph.FuseEpilogues(gF, keep...)
	var haveChain bool
	for _, n := range gF.Nodes() {
		if n.Kind() == graph.KindOp && n.OpName() == "MatMul+Add+Tanh" {
			haveChain = true
		}
	}
	if !haveChain {
		t.Fatal("Tanh chain did not fuse fully in the training graph")
	}
	want := runAll(t, gU, append([]*graph.Node{lossU}, gradsU...), runtime.Feeds{xU: xv})
	got := runAll(t, gF, append([]*graph.Node{lossF}, gradsF...), runtime.Feeds{xF: xv})
	for i := range want {
		if d := tensor.MaxAbsDiff(got[i], want[i]); d != 0 {
			t.Fatalf("fetch %d differs under tanh-chain fusion (max |Δ| %g)", i, d)
		}
	}
}

// TestOptimizePassRunsFusion: the graph optimizer's pass 4 reports
// fusions through OptimizeResult and the optimized graph computes the
// original bits.
func TestOptimizePassRunsFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.New()
	x := g.Placeholder("x", 3, 5)
	w := g.Variable("w", tensor.RandNormal(rng, 0, 1, 5, 4))
	b := g.Variable("b", tensor.RandNormal(rng, 0, 1, 4))
	out := Relu(Add(MatMul(x, w), b))
	ctx := &graph.ExecContext{Pool: tensor.NewPool(1), RNG: rand.New(rand.NewSource(1))}
	res, err := graph.Optimize(ctx, []*graph.Node{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.FusedEpilogues != 2 {
		t.Fatalf("Optimize pass 4 fused %d, want 2", res.FusedEpilogues)
	}
	xv := tensor.RandNormal(rng, 0, 1, 3, 5)
	want := runAll(t, g, []*graph.Node{out}, runtime.Feeds{x: xv})[0]
	// The optimized graph has its own placeholder.
	var nx *graph.Node
	for _, n := range res.Graph.Nodes() {
		if n.Kind() == graph.KindPlaceholder {
			nx = n
		}
	}
	got := runAll(t, res.Graph, []*graph.Node{res.Fetch(out)}, runtime.Feeds{nx: xv})[0]
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("optimized+fused output differs (max |Δ| %g)", d)
	}
}
