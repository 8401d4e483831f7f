package ops

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Optimizer apply-ops (class F) mutate their target Variable in place,
// mirroring TensorFlow's ApplyGradientDescent / ApplyRMSProp /
// ApplyAdam kernels. Slot accumulators (momentum, RMS statistics, the
// Adam step counter) are graph Variables — named "<var>/slot/<name>"
// and created with the op — rather than hidden op state, so
// checkpoints capture them via Graph.Variables() and a resumed run
// continues the exact optimizer trajectory. The output is a scalar
// zero so updates can be grouped behind a NoOp fetch.
//
// Every apply-op takes a learning-rate vector. One rate updates the
// whole tensor. K rates update the K slices along the target's leading
// axis, slice k at lrs[k]: a horizontally fused array stacks K trainees
// there, and each slice runs exactly the arithmetic and Pool.For grain
// of a standalone update. Slots take the stacked shape, except Adam's
// step counter, which all trainees share because they step together.

// slotVar declares a zero-initialized slot variable for target. The
// name is "<target>/slot/<slot>", uniquified with a "#k" suffix when a
// variable by that name already exists (targets with duplicate names),
// keeping checkpoint keys unambiguous. shape defaults to the target's.
func slotVar(target *graph.Node, slot string, shape ...int) *graph.Node {
	if len(shape) == 0 {
		shape = target.Shape()
	}
	g := target.Graph()
	taken := map[string]bool{}
	for _, v := range g.Variables() {
		taken[v.Name()] = true
	}
	name := target.Name() + "/slot/" + slot
	for k := 2; taken[name]; k++ {
		name = fmt.Sprintf("%s/slot/%s#%d", target.Name(), slot, k)
	}
	return g.Variable(name, tensor.New(shape...))
}

// checkApply validates an apply-op's gradient against its target and
// its learning-rate vector: K > 1 rates need a leading axis of size K.
func checkApply(name string, in [][]int, target *graph.Node, lrs []float32) ([]int, error) {
	if err := wantInputs(name, in, 1); err != nil {
		return nil, err
	}
	if !tensor.SameShape(in[0], target.Shape()) {
		return nil, fmt.Errorf("%s grad %v vs var %v", name, in[0], target.Shape())
	}
	if k := len(lrs); k != 1 && (len(target.Shape()) == 0 || target.Shape()[0] != k) {
		return nil, fmt.Errorf("%s var %v, want leading axis %d for %d learning rates", name, target.Shape(), k, k)
	}
	return []int{}, nil
}

// forSlices splits n elements into len(lrs) contiguous slices and runs
// body over slice k at rate lrs[k], each slice one Pool.For of the
// given grain. A single rate is one Pool.For over the whole tensor.
func forSlices(ctx *graph.ExecContext, n, grain int, lrs []float32, body func(lr float32, lo, hi int)) {
	s := n / len(lrs)
	for k, lr := range lrs {
		off := k * s
		ctx.Pool.For(s, grain, func(lo, hi int) { body(lr, off+lo, off+hi) })
	}
}

type applySGDOp struct {
	target *graph.Node
	lrs    []float32
}

func (*applySGDOp) Name() string         { return "ApplyGradientDescent" }
func (*applySGDOp) Class() graph.OpClass { return graph.ClassOptimization }
func (o *applySGDOp) InferShape(in [][]int) ([]int, error) {
	return checkApply("ApplyGradientDescent", in, o.target, o.lrs)
}
func (o *applySGDOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	v := o.target.Value().Data()
	g := in[0].Data()
	forSlices(ctx, len(v), 16384, o.lrs, func(lr float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] -= lr * g[i]
		}
	})
	return tensor.Scalar(0), nil
}
func (o *applySGDOp) Cost(in [][]int, out []int) (int64, int64) {
	n := int64(tensor.SizeOf(in[0]))
	return n, 3 * n * elemBytes
}

// Mutates implements graph.Mutator: the op rewrites its target
// variable's storage.
func (o *applySGDOp) Mutates() []*graph.Node { return []*graph.Node{o.target} }

// Impure implements graph.Impure: updates mutate their variable.
func (*applySGDOp) Impure() {}

// ApplySGD adds a gradient-descent update of variable v by grad at
// learning rates lrs.
func ApplySGD(v, grad *graph.Node, lrs []float32) *graph.Node {
	return v.Graph().MustApply(&applySGDOp{target: v, lrs: slices.Clone(lrs)}, grad)
}

type applyMomentumOp struct {
	target   *graph.Node
	lrs      []float32
	mom      float32
	velocity *graph.Node
}

func (*applyMomentumOp) Name() string         { return "ApplyMomentum" }
func (*applyMomentumOp) Class() graph.OpClass { return graph.ClassOptimization }
func (o *applyMomentumOp) InferShape(in [][]int) ([]int, error) {
	return checkApply("ApplyMomentum", in, o.target, o.lrs)
}
func (o *applyMomentumOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	v := o.target.Value().Data()
	vel := o.velocity.Value().Data()
	g := in[0].Data()
	mom := o.mom
	forSlices(ctx, len(v), 16384, o.lrs, func(lr float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			vel[i] = mom*vel[i] + g[i]
			v[i] -= lr * vel[i]
		}
	})
	return tensor.Scalar(0), nil
}
func (o *applyMomentumOp) Cost(in [][]int, out []int) (int64, int64) {
	n := int64(tensor.SizeOf(in[0]))
	return 3 * n, 5 * n * elemBytes
}

// Mutates implements graph.Mutator: the op rewrites its target
// variable and its velocity slot.
func (o *applyMomentumOp) Mutates() []*graph.Node { return []*graph.Node{o.target, o.velocity} }

// Impure implements graph.Impure.
func (*applyMomentumOp) Impure() {}

// ApplyMomentum adds a momentum-SGD update of variable v by grad. The
// velocity accumulator is a "<v>/slot/velocity" graph variable, so it
// rides along in checkpoints.
func ApplyMomentum(v, grad *graph.Node, lrs []float32, momentum float32) *graph.Node {
	op := &applyMomentumOp{target: v, lrs: slices.Clone(lrs), mom: momentum, velocity: slotVar(v, "velocity")}
	return v.Graph().MustApply(op, grad)
}

type applyRMSPropOp struct {
	target     *graph.Node
	lrs        []float32
	decay, eps float32
	ms         *graph.Node
}

func (*applyRMSPropOp) Name() string         { return "ApplyRMSProp" }
func (*applyRMSPropOp) Class() graph.OpClass { return graph.ClassOptimization }
func (o *applyRMSPropOp) InferShape(in [][]int) ([]int, error) {
	return checkApply("ApplyRMSProp", in, o.target, o.lrs)
}
func (o *applyRMSPropOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	v := o.target.Value().Data()
	ms := o.ms.Value().Data()
	g := in[0].Data()
	decay, eps := o.decay, o.eps
	forSlices(ctx, len(v), 8192, o.lrs, func(lr float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			ms[i] = decay*ms[i] + (1-decay)*g[i]*g[i]
			v[i] -= lr * g[i] / float32(math.Sqrt(float64(ms[i]))+float64(eps))
		}
	})
	return tensor.Scalar(0), nil
}
func (o *applyRMSPropOp) Cost(in [][]int, out []int) (int64, int64) {
	n := int64(tensor.SizeOf(in[0]))
	return 6 * n, 5 * n * elemBytes
}

// Mutates implements graph.Mutator: the op rewrites its target
// variable and its mean-square slot.
func (o *applyRMSPropOp) Mutates() []*graph.Node { return []*graph.Node{o.target, o.ms} }

// Impure implements graph.Impure.
func (*applyRMSPropOp) Impure() {}

// ApplyRMSProp adds an RMSProp update of variable v by grad — the
// optimizer DeepMind used for DQN (visible in the paper's Fig. 6a).
// The mean-square accumulator is a "<v>/slot/ms" graph variable.
func ApplyRMSProp(v, grad *graph.Node, lrs []float32, decay, eps float32) *graph.Node {
	op := &applyRMSPropOp{target: v, lrs: slices.Clone(lrs), decay: decay, eps: eps, ms: slotVar(v, "ms")}
	return v.Graph().MustApply(op, grad)
}

type applyAdamOp struct {
	target      *graph.Node
	lrs         []float32
	b1, b2, eps float32
	m, v, step  *graph.Node
}

func (*applyAdamOp) Name() string         { return "ApplyAdam" }
func (*applyAdamOp) Class() graph.OpClass { return graph.ClassOptimization }
func (o *applyAdamOp) InferShape(in [][]int) ([]int, error) {
	return checkApply("ApplyAdam", in, o.target, o.lrs)
}
func (o *applyAdamOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	// The step counter lives in a shape-{1} variable so checkpoints
	// restore the bias correction along with the moments. float32 holds
	// integer step counts exactly up to 2^24 — far beyond any run here.
	st := o.step.Value().Data()
	st[0]++
	step := float64(st[0])
	w := o.target.Value().Data()
	m, v := o.m.Value().Data(), o.v.Value().Data()
	g := in[0].Data()
	b1, b2 := float64(o.b1), float64(o.b2)
	c1 := 1 - math.Pow(b1, step)
	c2 := 1 - math.Pow(b2, step)
	eps := float64(o.eps)
	forSlices(ctx, len(w), 8192, o.lrs, func(lr32 float32, lo, hi int) {
		lr := float64(lr32) * math.Sqrt(c2) / c1
		for i := lo; i < hi; i++ {
			gi := float64(g[i])
			mi := b1*float64(m[i]) + (1-b1)*gi
			vi := b2*float64(v[i]) + (1-b2)*gi*gi
			m[i], v[i] = float32(mi), float32(vi)
			w[i] -= float32(lr * mi / (math.Sqrt(vi) + eps))
		}
	})
	return tensor.Scalar(0), nil
}
func (o *applyAdamOp) Cost(in [][]int, out []int) (int64, int64) {
	n := int64(tensor.SizeOf(in[0]))
	return 10 * n, 7 * n * elemBytes
}

// Mutates implements graph.Mutator: the op rewrites its target
// variable and its moment/step slots.
func (o *applyAdamOp) Mutates() []*graph.Node {
	return []*graph.Node{o.target, o.m, o.v, o.step}
}

// Impure implements graph.Impure.
func (*applyAdamOp) Impure() {}

// ApplyAdam adds an Adam update of variable v by grad — the optimizer
// Kingma & Welling's autoencoder work popularized. The first/second
// moments and the step counter are "<v>/slot/{m,v,step}" graph
// variables, so a restored checkpoint resumes the exact trajectory,
// bias correction included.
func ApplyAdam(v, grad *graph.Node, lrs []float32, beta1, beta2, eps float32) *graph.Node {
	op := &applyAdamOp{
		target: v, lrs: slices.Clone(lrs), b1: beta1, b2: beta2, eps: eps,
		m: slotVar(v, "m"), v: slotVar(v, "v"), step: slotVar(v, "step", 1),
	}
	return v.Graph().MustApply(op, grad)
}

type applyAdagradOp struct {
	target *graph.Node
	lrs    []float32
	eps    float32
	accum  *graph.Node
}

func (*applyAdagradOp) Name() string         { return "ApplyAdagrad" }
func (*applyAdagradOp) Class() graph.OpClass { return graph.ClassOptimization }
func (o *applyAdagradOp) InferShape(in [][]int) ([]int, error) {
	return checkApply("ApplyAdagrad", in, o.target, o.lrs)
}
func (o *applyAdagradOp) Forward(ctx *graph.ExecContext, in []*tensor.Tensor) (*tensor.Tensor, error) {
	v := o.target.Value().Data()
	acc := o.accum.Value().Data()
	g := in[0].Data()
	eps := o.eps
	forSlices(ctx, len(v), 8192, o.lrs, func(lr float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			acc[i] += g[i] * g[i]
			v[i] -= lr * g[i] / (float32(math.Sqrt(float64(acc[i]))) + eps)
		}
	})
	return tensor.Scalar(0), nil
}
func (o *applyAdagradOp) Cost(in [][]int, out []int) (int64, int64) {
	n := int64(tensor.SizeOf(in[0]))
	return 5 * n, 5 * n * elemBytes
}

// Mutates implements graph.Mutator: the op rewrites its target
// variable and its accumulator slot.
func (o *applyAdagradOp) Mutates() []*graph.Node { return []*graph.Node{o.target, o.accum} }

// Impure implements graph.Impure.
func (*applyAdagradOp) Impure() {}

// ApplyAdagrad adds a Duchi et al. AdaGrad update of variable v by
// grad — the per-parameter learning-rate annealing the memory-network
// paper's optimizer family popularized. The gradient-square accumulator
// is a "<v>/slot/accum" graph variable.
func ApplyAdagrad(v, grad *graph.Node, lrs []float32, eps float32) *graph.Node {
	op := &applyAdagradOp{target: v, lrs: slices.Clone(lrs), eps: eps, accum: slotVar(v, "accum")}
	return v.Graph().MustApply(op, grad)
}
