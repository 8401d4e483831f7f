package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
)

// TrainPlan records the training structure BuildTraining assembles for
// a workload: the loss, the trainable parameters, their raw gradient
// nodes, the self-contained optimizer step (TrainOp — the node the
// classic TrainStep fetches), and the optimizer recipe. It is the
// gradient/update fetch surface the training driver (internal/dist)
// uses. A dist replica fetches Loss plus Grads to compute one
// micro-batch's unclipped gradients without touching any variable, and
// applies an externally combined gradient through a fed-gradient path
// built by ApplyPath, over the plan's own parameters or over a fused
// array's stacked copies of them.
type TrainPlan struct {
	g       *graph.Graph
	loss    *graph.Node
	params  []*graph.Node
	grads   []*graph.Node
	trainOp *graph.Node

	opt      Optimizer
	lr, clip float32
}

// Loss returns the scalar training loss node.
func (tp *TrainPlan) Loss() *graph.Node { return tp.loss }

// Params returns the trainable parameters, in registration order.
func (tp *TrainPlan) Params() []*graph.Node { return tp.params }

// Grads returns the raw (unclipped) gradient nodes, aligned with
// Params. Fetching them runs forward + backward only: no optimizer
// apply-op is in their dependency closure, so variables and optimizer
// slots are untouched.
func (tp *TrainPlan) Grads() []*graph.Node { return tp.grads }

// TrainOp returns the self-contained optimizer step: the group node
// whose fetch applies the live gradients (clipped per the recipe) to
// every parameter.
func (tp *TrainPlan) TrainOp() *graph.Node { return tp.trainOp }

// DistApply builds the fed-gradient update path over the plan's own
// parameters at the recipe's learning rate: ApplyPath(Params(), {1}).
func (tp *TrainPlan) DistApply() (apply *graph.Node, gradIn []*graph.Node, err error) {
	return tp.ApplyPath(tp.params, []float32{1})
}

// ApplyPath builds a fed-gradient update path over params, which are
// the plan's parameters or their (K, ...) stacks in a fused graph, in
// plan order. gradIn[i] is a placeholder shaped like params[i], and
// fetching apply performs the recipe's optimizer step, gradient
// clipping included, reading the fed tensors instead of the live
// gradients. scales holds one learning-rate scale per trainee; trainee
// k steps at the base rate × scales[k], a single float32 product, so a
// one-trainee path at scale s is the bit-exact reference for a fused
// trainee at s. Each call builds new placeholders and optimizer slots;
// a path shares only the parameters with TrainOp, so driving one never
// perturbs the other's state.
func (tp *TrainPlan) ApplyPath(params []*graph.Node, scales []float32) (apply *graph.Node, gradIn []*graph.Node, err error) {
	if len(params) != len(tp.params) || len(params) == 0 {
		return nil, nil, fmt.Errorf("nn: apply path over %d parameters, plan has %d", len(params), len(tp.params))
	}
	g := params[0].Graph()
	gradIn = make([]*graph.Node, len(params))
	for i, p := range params {
		gradIn[i] = g.Placeholder("dist/grad/"+tp.params[i].Name(), p.Shape()...)
	}
	apply, err = tp.applyGroup(g, params, gradIn, scales)
	return apply, gradIn, err
}

// Fuse runs the tier-2 epilogue-fusion pass (graph.FuseEpilogues) over
// the assembled graph, folding bias-add and activation consumers into
// their MatMul/Conv2D producers. The plan's own fetch surface — loss,
// raw gradients, and the optimizer step — is kept materialized
// automatically; extra lists any additional externally fetched nodes
// (inference heads, probes). Call it at the end of model Setup, after
// every head is built. Fused graphs compute bit-identical values, so
// the determinism contract is unaffected. Returns the number of
// absorbed consumers.
func (tp *TrainPlan) Fuse(extra ...*graph.Node) int {
	keep := make([]*graph.Node, 0, 2+len(tp.grads)+len(extra))
	keep = append(keep, tp.loss, tp.trainOp)
	keep = append(keep, tp.grads...)
	keep = append(keep, extra...)
	return graph.FuseEpilogues(tp.g, keep...)
}

// applyGroup builds the recipe's update of every params[i] by
// grads[i] — clipped to [-clip, clip] when the recipe clips — with
// trainee k at lr × scales[k], grouped behind one fetchable node. It is
// the one place both TrainOp and every fed-gradient path are built.
func (tp *TrainPlan) applyGroup(g *graph.Graph, params, grads []*graph.Node, scales []float32) (*graph.Node, error) {
	lrs := make([]float32, len(scales))
	for k, s := range scales {
		lrs[k] = tp.lr * s
	}
	updates := make([]*graph.Node, len(params))
	for i, p := range params {
		fed := grads[i]
		if tp.clip > 0 {
			fed = ops.Maximum(ops.Minimum(fed, ops.ScalarConst(g, tp.clip)), ops.ScalarConst(g, -tp.clip))
		}
		switch tp.opt {
		case SGD:
			updates[i] = ops.ApplySGD(p, fed, lrs)
		case Momentum:
			updates[i] = ops.ApplyMomentum(p, fed, lrs, 0.9)
		case RMSProp:
			updates[i] = ops.ApplyRMSProp(p, fed, lrs, 0.95, 0.01)
		case Adam:
			updates[i] = ops.ApplyAdam(p, fed, lrs, 0.9, 0.999, 1e-8)
		case Adagrad:
			updates[i] = ops.ApplyAdagrad(p, fed, lrs, 1e-8)
		default:
			return nil, fmt.Errorf("nn: unknown optimizer %d", tp.opt)
		}
	}
	return ops.Group(g, updates...), nil
}

// BuildTraining builds gradient nodes for loss w.r.t. params and the
// chosen optimizer's apply-ops, returning the full TrainPlan.
// Parameters without a gradient path are rejected.
func BuildTraining(g *graph.Graph, loss *graph.Node, params []*graph.Node, opt Optimizer, lr float32) (*TrainPlan, error) {
	return BuildTrainingClipped(g, loss, params, opt, lr, 0)
}

// BuildTrainingClipped is BuildTraining with elementwise gradient
// clipping to [-clip, clip] when clip > 0 — the stabilization the
// recurrent workloads rely on (Sutskever et al. clip gradients; DQN
// clips TD errors). The recorded Grads stay raw; clipping applies in
// every update path (TrainOp and ApplyPath), so combined dist
// gradients are clipped exactly once, after combination — the
// N-independent order.
func BuildTrainingClipped(g *graph.Graph, loss *graph.Node, params []*graph.Node, opt Optimizer, lr, clip float32) (*TrainPlan, error) {
	grads, err := graph.Gradients(loss, params)
	if err != nil {
		return nil, err
	}
	for i, p := range params {
		if grads[i] == nil {
			return nil, fmt.Errorf("nn: parameter %s has no gradient path to the loss", p.Name())
		}
	}
	tp := &TrainPlan{
		g: g, loss: loss,
		params: append([]*graph.Node(nil), params...),
		grads:  grads,
		opt:    opt, lr: lr, clip: clip,
	}
	if tp.trainOp, err = tp.applyGroup(g, tp.params, grads, []float32{1}); err != nil {
		return nil, err
	}
	return tp, nil
}
