package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Horizontally fused array operations (internal/dist's fused replica
// kind). A fused graph trains K instances of one workload at once by
// stacking their tensors along a new leading fusion axis of size K. Most fused nodes
// are the ordinary primitive lifted across that axis: ArrayWrap runs
// the wrapped kernel once per trainee on contiguous slice views, so
// every trainee's arithmetic — operation order, chunk grid, float32
// rounding — is exactly what its standalone run performs. That
// per-slice execution is the determinism contract's foundation; the
// batched-GEMM fast path (BatchMatMul) keeps it because its kernel is
// itself a per-slice MatMul loop.
//
// The remaining ops here cover what lifting alone cannot: broadcasting
// a shared (unstacked) tensor across trainees, and dropout with one
// shared mask so the RNG stream stays in draw-count lockstep with a
// standalone run. The optimizer apply-ops (optimizer.go) update the
// stacked parameters directly, one learning rate per trainee.

// MatMulKind reports whether op is the dense 2-D MatMul primitive,
// and its transpose flags. The fusion transform uses it to route
// no-transpose products of two stacked operands onto BatchMatMul.
func MatMulKind(op graph.Op) (transA, transB, ok bool) {
	m, isMM := op.(matMulOp)
	if !isMM {
		return false, false, false
	}
	return m.transA, m.transB, true
}

// DropoutInfo reports whether op is the stateful Dropout primitive and
// its drop rate.
func DropoutInfo(op graph.Op) (rate float32, ok bool) {
	d, isDrop := op.(*dropoutOp)
	if !isDrop {
		return 0, false
	}
	return d.rate, true
}

// DropoutGradSrc reports whether op is a DropoutGrad and returns the
// forward Dropout op whose mask it replays, so the fusion transform
// can pair the fused gradient with the fused forward instance.
func DropoutGradSrc(op graph.Op) (graph.Op, bool) {
	dg, isGrad := op.(*dropoutGradOp)
	if !isGrad {
		return nil, false
	}
	return dg.src, true
}

// ---- generic lifted primitive ----

// arrayOp lifts a pure primitive across the fusion axis: input i is
// either stacked (leading axis k, sliced per trainee) or shared
// (passed whole to every trainee's invocation). Forward runs the inner
// kernel k times on contiguous views, so each slice's result is
// bit-identical to the standalone op on the same operands.
type arrayOp struct {
	k       int
	inner   graph.Op
	stacked []bool
}

func (o *arrayOp) Name() string         { return "Array" + o.inner.Name() }
func (o *arrayOp) Class() graph.OpClass { return o.inner.Class() }

// stripShapes removes the fusion axis from stacked input shapes,
// validating it, and returns the per-trainee shapes the inner op sees.
func (o *arrayOp) stripShapes(in [][]int) ([][]int, error) {
	if len(in) != len(o.stacked) {
		return nil, fmt.Errorf("%s wants %d inputs, got %d", o.Name(), len(o.stacked), len(in))
	}
	inner := make([][]int, len(in))
	for i, s := range in {
		if !o.stacked[i] {
			inner[i] = s
			continue
		}
		if len(s) == 0 || s[0] != o.k {
			return nil, fmt.Errorf("%s stacked input %d has shape %v, want leading axis %d", o.Name(), i, s, o.k)
		}
		inner[i] = s[1:]
	}
	return inner, nil
}

func (o *arrayOp) InferShape(in [][]int) ([]int, error) {
	inner, err := o.stripShapes(in)
	if err != nil {
		return nil, err
	}
	out, err := o.inner.InferShape(inner)
	if err != nil {
		return nil, err
	}
	return append([]int{o.k}, out...), nil
}

// sliceViews returns trainee kk's view of each input: a contiguous
// slice of the stacked tensors, the whole tensor for shared ones.
func (o *arrayOp) sliceViews(in []*tensor.Tensor, kk int, views []*tensor.Tensor) []*tensor.Tensor {
	for i, t := range in {
		if !o.stacked[i] {
			views[i] = t
			continue
		}
		shape := t.Shape()[1:]
		s := tensor.SizeOf(shape)
		views[i] = tensor.FromSlice(t.Data()[kk*s:(kk+1)*s], shape...)
	}
	return views
}

func (o *arrayOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	shapes := make([][]int, len(in))
	for i, t := range in {
		shapes[i] = t.Shape()
	}
	innerShapes, err := o.stripShapes(shapes)
	if err != nil {
		return nil, err
	}
	innerOut, err := o.inner.InferShape(innerShapes)
	if err != nil {
		return nil, err
	}
	out := tensor.New(append([]int{o.k}, innerOut...)...)
	if err := o.runInto(ctx, in, out, innerOut); err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardInto implements graph.IntoOp: every trainee slice of out is
// fully overwritten, and out never aliases an input (the wrapped op
// receives fresh slice views of distinct tensors).
func (o *arrayOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return o.runInto(ctx, in, out, out.Shape()[1:])
}

func (o *arrayOp) runInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor, innerOut []int) error {
	s := tensor.SizeOf(innerOut)
	views := make([]*tensor.Tensor, len(in))
	into, hasInto := o.inner.(graph.IntoOp)
	for kk := 0; kk < o.k; kk++ {
		ins := o.sliceViews(in, kk, views)
		dst := out.Data()[kk*s : (kk+1)*s]
		if hasInto {
			if err := into.ForwardInto(ctx, ins, tensor.FromSlice(dst, innerOut...)); err != nil {
				return err
			}
			continue
		}
		res, err := o.inner.Forward(ctx, ins)
		if err != nil {
			return err
		}
		copy(dst, res.Data())
	}
	return nil
}

func (o *arrayOp) Cost(in [][]int, out []int) (int64, int64) {
	inner, err := o.stripShapes(in)
	if err != nil {
		return 0, defaultBytes(in, out)
	}
	if c, ok := o.inner.(graph.Coster); ok {
		flops, bytes := c.Cost(inner, out[1:])
		return flops * int64(o.k), bytes * int64(o.k)
	}
	return 0, defaultBytes(in, out)
}

// ArrayWrap lifts a pure primitive op across a fusion axis of size k.
// stacked[i] marks inputs carrying the leading axis; the rest are
// shared across trainees. Impure or state-mutating ops are rejected —
// they need the dedicated fused forms (ArrayDropout, the Apply* ops
// with one learning rate per trainee).
func ArrayWrap(k int, inner graph.Op, stacked []bool, inputs ...*graph.Node) (*graph.Node, error) {
	if k < 1 {
		return nil, fmt.Errorf("ops: ArrayWrap fusion width %d", k)
	}
	if len(stacked) != len(inputs) {
		return nil, fmt.Errorf("ops: ArrayWrap %d stacked flags for %d inputs", len(stacked), len(inputs))
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("ops: ArrayWrap needs at least one input")
	}
	if _, impure := inner.(graph.Impure); impure {
		return nil, fmt.Errorf("ops: ArrayWrap cannot lift impure op %s", inner.Name())
	}
	if _, mutates := inner.(graph.Mutator); mutates {
		return nil, fmt.Errorf("ops: ArrayWrap cannot lift mutating op %s", inner.Name())
	}
	any := false
	for _, s := range stacked {
		any = any || s
	}
	if !any {
		return nil, fmt.Errorf("ops: ArrayWrap of %s with no stacked input — keep it shared instead", inner.Name())
	}
	return inputs[0].Graph().Apply(&arrayOp{
		k:       k,
		inner:   inner,
		stacked: append([]bool(nil), stacked...),
	}, inputs...)
}

// ---- broadcast: shared tensor → stacked ----

// arrayBroadcastOp tiles a shared tensor K times along a new leading
// fusion axis, for the few sites where a fused op needs every operand
// stacked (BatchMatMul).
type arrayBroadcastOp struct{ k int }

func (o *arrayBroadcastOp) Name() string         { return "ArrayBroadcast" }
func (o *arrayBroadcastOp) Class() graph.OpClass { return graph.ClassDataMovement }
func (o *arrayBroadcastOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("ArrayBroadcast", in, 1); err != nil {
		return nil, err
	}
	return append([]int{o.k}, copyShape(in[0])...), nil
}
func (o *arrayBroadcastOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(append([]int{o.k}, in[0].Shape()...)...)
	if err := o.ForwardInto(ctx, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardInto implements graph.IntoOp.
func (o *arrayBroadcastOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	src := in[0].Data()
	s := len(src)
	od := out.Data()
	for kk := 0; kk < o.k; kk++ {
		copy(od[kk*s:(kk+1)*s], src)
	}
	return nil
}
func (o *arrayBroadcastOp) Cost(in [][]int, out []int) (int64, int64) {
	return 0, defaultBytes(in, out)
}

// ArrayBroadcast stacks a shared tensor K times along a new leading
// fusion axis.
func ArrayBroadcast(k int, x *graph.Node) *graph.Node {
	return x.Graph().MustApply(&arrayBroadcastOp{k: k}, x)
}

// ---- fused dropout ----

// arrayDropoutOp is fused dropout with one shared mask: it samples a
// single per-trainee-shaped mask — the same number of RNG draws a
// standalone run makes, keeping every downstream draw in the shared
// stream aligned — and applies it to all K trainee slices. Trainees
// share the seed by construction (fusion admits only seed-identical
// instances), so the shared mask is exactly the mask each standalone
// run would sample.
type arrayDropoutOp struct {
	k    int
	rate float32
	mask *tensor.Tensor // last sampled per-trainee mask (training only)
}

func (*arrayDropoutOp) Name() string         { return "ArrayDropout" }
func (*arrayDropoutOp) Class() graph.OpClass { return graph.ClassRandom }
func (o *arrayDropoutOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("ArrayDropout", in, 1); err != nil {
		return nil, err
	}
	if len(in[0]) == 0 || in[0][0] != o.k {
		return nil, fmt.Errorf("ArrayDropout input %v, want leading axis %d", in[0], o.k)
	}
	return copyShape(in[0]), nil
}
func (o *arrayDropoutOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	x := in[0]
	if !ctx.Training || o.rate <= 0 {
		return x, nil
	}
	keep := 1 - o.rate
	mask := tensor.New(x.Shape()[1:]...)
	md := mask.Data()
	inv := 1 / keep
	for i := range md {
		if ctx.RNG.Float32() < keep {
			md[i] = inv
		}
	}
	o.mask = mask
	return arrayMaskApply(ctx, x, mask, o.k)
}

// Impure implements graph.Impure: stateful and stochastic — and may
// return its input as a view in inference mode, so no IntoOp.
func (*arrayDropoutOp) Impure() {}

// arrayMaskApply multiplies every trainee slice of x by the shared
// per-trainee mask, each through the same elementwise kernel a
// standalone run uses.
func arrayMaskApply(ctx *graph.ExecContext, x, mask *tensor.Tensor, k int) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape()...)
	s := len(mask.Data())
	shape := mask.Shape()
	for kk := 0; kk < k; kk++ {
		xi := tensor.FromSlice(x.Data()[kk*s:(kk+1)*s], shape...)
		r, err := tensor.BinaryOp(ctx.Pool, xi, mask, func(a, m float32) float32 { return a * m })
		if err != nil {
			return nil, err
		}
		copy(out.Data()[kk*s:(kk+1)*s], r.Data())
	}
	return out, nil
}

type arrayDropoutGradOp struct{ src *arrayDropoutOp }

func (*arrayDropoutGradOp) Name() string         { return "ArrayDropoutGrad" }
func (*arrayDropoutGradOp) Class() graph.OpClass { return graph.ClassRandom }
func (o *arrayDropoutGradOp) InferShape(in [][]int) ([]int, error) {
	if err := wantInputs("ArrayDropoutGrad", in, 1); err != nil {
		return nil, err
	}
	return copyShape(in[0]), nil
}
func (o *arrayDropoutGradOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	if !ctx.Training || o.src.rate <= 0 || o.src.mask == nil {
		return in[0], nil
	}
	return arrayMaskApply(ctx, in[0], o.src.mask, o.src.k)
}

// Impure implements graph.Impure.
func (*arrayDropoutGradOp) Impure() {}

// ArrayDropout applies fused inverted dropout with a single shared
// mask to a stacked (K,...) tensor.
func ArrayDropout(k int, x *graph.Node, rate float32) *graph.Node {
	return x.Graph().MustApply(&arrayDropoutOp{k: k, rate: rate}, x)
}

// ArrayDropoutGrad pairs the fused dropout gradient with its forward
// node, replaying the same shared mask. drop must be a node built by
// ArrayDropout.
func ArrayDropoutGrad(drop, grad *graph.Node) (*graph.Node, error) {
	src, ok := drop.Op().(*arrayDropoutOp)
	if !ok {
		return nil, fmt.Errorf("ops: ArrayDropoutGrad source %s is not an ArrayDropout", drop.OpName())
	}
	return grad.Graph().Apply(&arrayDropoutGradOp{src: src}, grad)
}
