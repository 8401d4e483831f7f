package dist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// replicaGraph is the training surface a replica drives: its workload's
// own graph, or a fused graph stacking K trainees (transform).
type replicaGraph struct {
	g *graph.Graph
	// loss is the scalar training loss, or when fused the stacked
	// per-trainee loss vector, shape (K).
	loss *graph.Node
	// grads are the raw gradients, aligned with params.
	grads []*graph.Node
	// params are the trainable variables in plan order, stacked to
	// (K, *param) when fused.
	params []*graph.Node
	// inputs maps every training-signature input name to its
	// placeholder, or to nil when the input lies outside the fused
	// closure and no fetch reads it.
	inputs map[string]*graph.Node
}

// plainGraph is the width-1 replica: the workload's own graph.
func plainGraph(m Trainable) *replicaGraph {
	plan := m.TrainPlan()
	rg := &replicaGraph{g: m.Graph(), loss: plan.Loss(), grads: plan.Grads(), params: plan.Params(), inputs: map[string]*graph.Node{}}
	for _, in := range m.Signature(core.ModeTraining).Inputs {
		rg.inputs[in.Name] = in.Node
	}
	return rg
}

// mapped is a template node's image in the fused graph: the fused node
// and whether it carries the leading fusion axis.
type mapped struct {
	node    *graph.Node
	stacked bool
}

// transform horizontally fuses K instances of the template workload:
// it walks the training closure (loss + raw gradients) in topological
// order and maps every node into a fresh graph. Trainable parameters
// stack along a new leading axis of size K (each trainee's slice
// initialized to the template's seed-determined values — fusion admits
// only seed-identical instances, so all K standalone initializations
// are that same tensor). Placeholders, constants, non-trainable state
// and every node computed purely from them stay shared: computed once,
// serving all K trainees — the fusion win. Any op touching a stacked
// operand is lifted per-slice (ops.ArrayWrap), routed onto the batched
// GEMM (ops.BatchMatMul) when it is an untransposed product of two
// stacked operands, or replaced by the fused dropout pair, so every
// trainee's arithmetic and the session's RNG draw order are exactly
// those of a standalone run.
func transform(m Trainable, k int) (*replicaGraph, error) {
	plan := m.TrainPlan()
	params := plan.Params()
	paramIdx := make(map[*graph.Node]int, len(params))
	for i, p := range params {
		paramIdx[p] = i
	}

	fg := graph.New()
	mp := map[*graph.Node]mapped{}
	dropMap := map[graph.Op]*graph.Node{} // template dropout op → fused ArrayDropout node
	fusedParams := make([]*graph.Node, len(params))

	// ensureStacked lifts a shared node onto the fusion axis for the
	// few sites that need every operand stacked.
	ensureStacked := func(mv mapped) *graph.Node {
		if mv.stacked {
			return mv.node
		}
		return ops.ArrayBroadcast(k, mv.node)
	}

	fetches := append([]*graph.Node{plan.Loss()}, plan.Grads()...)
	for _, n := range graph.Topo(fetches) {
		switch n.Kind() {
		case graph.KindPlaceholder:
			mp[n] = mapped{fg.Placeholder(n.Name(), n.Shape()...), false}
			continue
		case graph.KindConst:
			mp[n] = mapped{fg.Const(n.Name(), n.Value()), false}
			continue
		case graph.KindVariable:
			if pi, isParam := paramIdx[n]; isParam {
				init := tensor.New(append([]int{k}, n.Shape()...)...)
				src := n.Value().Data()
				for kk := 0; kk < k; kk++ {
					copy(init.Data()[kk*len(src):(kk+1)*len(src)], src)
				}
				v := fg.Variable(n.Name(), init)
				fusedParams[pi] = v
				mp[n] = mapped{v, true}
				continue
			}
			// Non-trainable state (nothing in the training closure
			// mutates it) is shared, with its own storage so the fused
			// run never aliases the template's.
			cp := tensor.New(n.Shape()...)
			copy(cp.Data(), n.Value().Data())
			mp[n] = mapped{fg.Variable(n.Name(), cp), false}
			continue
		}

		ins := make([]mapped, len(n.Inputs()))
		anyStacked := false
		for i, in := range n.Inputs() {
			mv, ok := mp[in]
			if !ok {
				return nil, fmt.Errorf("dist: %s: input %s of %s escaped the topological walk", m.Name(), in, n)
			}
			ins[i] = mv
			anyStacked = anyStacked || mv.stacked
		}
		op := n.Op()

		fn, stacked, err := func() (*graph.Node, bool, error) {
			// Fused dropout pair: one shared mask per dropout site
			// keeps the RNG stream in draw-count lockstep with a
			// standalone run, and the gradient replays that mask.
			if src, ok := ops.DropoutGradSrc(op); ok {
				fd, seen := dropMap[src]
				if !seen {
					return nil, false, fmt.Errorf("dist: %s: dropout gradient precedes its forward op", m.Name())
				}
				g, err := ops.ArrayDropoutGrad(fd, ensureStacked(ins[0]))
				return g, true, err
			}
			if rate, ok := ops.DropoutInfo(op); ok {
				d := ops.ArrayDropout(k, ensureStacked(ins[0]), rate)
				dropMap[op] = d
				return d, true, nil
			}
			if _, impure := op.(graph.Impure); impure {
				// Source-only RNG ops (RandomStandardNormal,
				// RandomUniform) are stateless draws: sampled once and
				// shared, exactly one standalone run's worth of draws.
				if len(ins) == 0 {
					nd, err := fg.Apply(op)
					return nd, false, err
				}
				return nil, false, fmt.Errorf("dist: %s: cannot fuse impure op %s", m.Name(), op.Name())
			}
			if !anyStacked {
				// Computed purely from shared operands: computed once,
				// shared by all trainees.
				shared := make([]*graph.Node, len(ins))
				for i, mv := range ins {
					shared[i] = mv.node
				}
				nd, err := fg.Apply(op, shared...)
				return nd, false, err
			}
			// The batched-GEMM fast path: an untransposed MatMul of
			// two stacked operands is exactly one BatchMatMul over the
			// fusion axis, whose kernel is itself a per-slice MatMul —
			// one fused node serving all K trainees, bit for bit.
			if tA, tB, isMM := ops.MatMulKind(op); isMM && !tA && !tB && ins[0].stacked && ins[1].stacked {
				return ops.BatchMatMul(ins[0].node, ins[1].node), true, nil
			}
			// Everything else lifts per-slice: stacked operands are
			// sliced per trainee, shared operands passed whole.
			flags := make([]bool, len(ins))
			nodes := make([]*graph.Node, len(ins))
			for i, mv := range ins {
				flags[i], nodes[i] = mv.stacked, mv.node
			}
			nd, err := ops.ArrayWrap(k, op, flags, nodes...)
			return nd, true, err
		}()
		if err != nil {
			return nil, err
		}
		mp[n] = mapped{fn, stacked}
	}

	out := &replicaGraph{
		g:      fg,
		loss:   ensureStacked(mp[plan.Loss()]),
		params: fusedParams,
		inputs: map[string]*graph.Node{},
	}
	for _, g := range plan.Grads() {
		out.grads = append(out.grads, ensureStacked(mp[g]))
	}
	for _, in := range m.Signature(core.ModeTraining).Inputs {
		out.inputs[in.Name] = mp[in.Node].node
	}
	return out, nil
}
