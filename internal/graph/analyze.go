package graph

import (
	"repro/internal/opdb"
	"repro/internal/symbolic"
)

// SavedActivationBytes returns the symbolic per-layer bytes that must be
// stashed from forward to backward when the layer is NOT checkpointed
// (the classic "saved activations" footprint). Tensors saved by multiple
// nodes are counted once.
func (g *Graph) SavedActivationBytes() *symbolic.Expr {
	seen := map[*Tensor]bool{}
	terms := []*symbolic.Expr{symbolic.Const(0)}
	for _, n := range g.Nodes {
		for _, t := range n.Saved {
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t.Size)
			}
		}
	}
	return symbolic.Add(terms...)
}

// BoundaryBytes returns the size of the layer's input boundary tensor,
// the only stash a checkpointed layer keeps.
func (g *Graph) BoundaryBytes() *symbolic.Expr { return g.Input.Size }

// tensorOrder numbers the graph's tensors in trace order: the input, then
// every node's inputs, outputs and saved tensors as the tracer emitted
// them. The liveness passes keep their sets as slices over this
// numbering and sum them in it, so a peak expression's term order is a
// function of the graph alone.
func (g *Graph) tensorOrder() ([]*Tensor, map[*Tensor]int) {
	var order []*Tensor
	id := map[*Tensor]int{}
	add := func(ts ...*Tensor) {
		for _, t := range ts {
			if _, ok := id[t]; !ok {
				id[t] = len(order)
				order = append(order, t)
			}
		}
	}
	if g.Input != nil {
		add(g.Input)
	}
	for _, n := range g.Nodes {
		add(n.Inputs...)
		add(n.Outputs...)
		add(n.Saved...)
	}
	return order, id
}

// sumSizes adds up the byte sizes of the tensors of order that in admits.
func sumSizes(order []*Tensor, in func(i int) bool) *symbolic.Expr {
	terms := []*symbolic.Expr{symbolic.Const(0)}
	for i, t := range order {
		if in(i) {
			terms = append(terms, t.Size)
		}
	}
	return symbolic.Add(terms...)
}

// PeakForwardBytes runs liveness analysis over the forward execution
// order and returns the symbolic peak of live activation bytes during one
// forward pass of this layer, including tensors that must stay stashed
// for backward. This is the intra-layer pass of the paper's memory
// analyzer.
func (g *Graph) PeakForwardBytes() *symbolic.Expr {
	order, id := g.tensorOrder()
	lastUse := make([]int, len(order))
	saved := make([]bool, len(order))
	for i, n := range g.Nodes {
		for _, t := range n.Inputs {
			lastUse[id[t]] = i
		}
		for _, t := range n.Saved {
			saved[id[t]] = true
		}
	}
	live := make([]bool, len(order))
	if g.Input != nil {
		live[id[g.Input]] = true
	}
	isLive := func(i int) bool { return live[i] }
	var peaks []*symbolic.Expr
	for i, n := range g.Nodes {
		for _, t := range n.Outputs {
			live[id[t]] = true
		}
		peaks = append(peaks, sumSizes(order, isLive))
		for _, t := range n.Inputs {
			if ti := id[t]; lastUse[ti] == i && !saved[ti] && t != g.Input {
				live[ti] = false
			}
		}
	}
	if len(peaks) == 0 {
		return symbolic.Const(0)
	}
	return symbolic.Max(peaks...)
}

// PeakBackwardBytes runs liveness analysis over the generated backward
// order (reverse of forward) and returns the symbolic peak of live bytes:
// stashed activations not yet consumed, plus activation gradients in
// flight. Parameter and parameter-gradient memory is accounted separately
// by the stage memory planner.
func (g *Graph) PeakBackwardBytes() *symbolic.Expr {
	order, id := g.tensorOrder()
	producer := make([]int, len(order))
	saveUses := make([]int, len(order))
	for i, n := range g.Nodes {
		for _, t := range n.Outputs {
			producer[id[t]] = i
		}
		for _, t := range n.Saved {
			saveUses[id[t]]++
		}
	}
	// gradLive holds activation gradients currently materialized (a
	// gradient has its tensor's own size, fp16).
	gradLive := make([]bool, len(order))
	// The incoming gradient of the block output arrives first.
	if len(g.Nodes) > 0 {
		last := g.Nodes[len(g.Nodes)-1]
		for _, t := range last.Outputs {
			gradLive[id[t]] = true
		}
	}
	isGradLive := func(i int) bool { return gradLive[i] }
	isStashed := func(i int) bool { return saveUses[i] > 0 }
	var peaks []*symbolic.Expr
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		// Backward of n: output grads + input grads + remaining stash
		// coexist while the node executes.
		for _, t := range n.Inputs {
			gradLive[id[t]] = true
		}
		peaks = append(peaks, symbolic.Add(sumSizes(order, isGradLive), sumSizes(order, isStashed)))
		// Output grads die once their producer's backward has run.
		for _, t := range n.Outputs {
			if ti := id[t]; producer[ti] == i {
				gradLive[ti] = false
			}
		}
		// Stashed tensors are released after their last backward use.
		for _, t := range n.Saved {
			saveUses[id[t]]--
		}
	}
	if len(peaks) == 0 {
		return symbolic.Const(0)
	}
	return symbolic.Max(peaks...)
}

// op is one traced operator reduced to what the time model reads.
type op struct {
	kind             opdb.Kind
	mPerSample, n, k int
	repeat           float64
}

func (n *Node) op() op {
	return op{kind: n.Kind, mPerSample: n.MPerSample, n: n.N, k: n.K, repeat: n.Repeat}
}

// shapeAt concretizes the operator's shape for microbatch size b.
func (o op) shapeAt(b int) opdb.OpShape {
	return opdb.OpShape{Kind: o.kind, M: o.mPerSample * b, N: o.n, K: o.k}
}

// addForward adds the operator's forward time at microbatch size b to
// total.
func (o op) addForward(total float64, db *opdb.DB, b int) float64 {
	return total + db.Lookup(o.shapeAt(b)).Time*o.repeat
}

// addBackward adds the operator's backward time at microbatch size b to
// total, kernel by kernel. Matmuls expand into dX and dW GEMMs (2x
// forward FLOPs); fused attention backward re-runs the forward tiling
// plus the dQ/dK/dV accumulation (~2.5x); bandwidth-bound ops (the
// embedding's scatter-add into the table among them) cost roughly their
// forward time.
func (o op) addBackward(total float64, db *opdb.DB, b int) float64 {
	rep := o.repeat
	switch o.kind {
	case opdb.FlashAttn:
		rep *= 2.5
	case opdb.CoreAttn:
		rep *= 2.0
	case opdb.Matmul:
		m := o.mPerSample * b
		total += db.Lookup(opdb.OpShape{Kind: opdb.Matmul, M: m, N: o.k, K: o.n}).Time * rep     // dX = dY * W^T
		return total + db.Lookup(opdb.OpShape{Kind: opdb.Matmul, M: o.k, N: o.n, K: m}).Time*rep // dW = X^T * dY
	}
	return total + db.Lookup(o.shapeAt(b)).Time*rep
}

// ForwardTime prices one forward pass of the layer at microbatch size b.
func (g *Graph) ForwardTime(db *opdb.DB, b int) float64 {
	total := 0.0
	for _, n := range g.Nodes {
		total = n.op().addForward(total, db, b)
	}
	return total
}

// BackwardTime prices one backward pass of the layer at microbatch b.
func (g *Graph) BackwardTime(db *opdb.DB, b int) float64 {
	total := 0.0
	for _, n := range g.Nodes {
		total = n.op().addBackward(total, db, b)
	}
	return total
}

// Ops is a traced graph reduced to its operator shapes — all the time
// model reads. It holds none of the graph's tensors, so it is what a
// long-lived caller keeps of a trace to price it at further microbatch
// sizes; its times equal the Graph's bit for bit.
type Ops []op

// Ops extracts the graph's operators.
func (g *Graph) Ops() Ops {
	ops := make(Ops, len(g.Nodes))
	for i, n := range g.Nodes {
		ops[i] = n.op()
	}
	return ops
}

// ForwardTime prices one forward pass at microbatch size b.
func (ops Ops) ForwardTime(db *opdb.DB, b int) float64 {
	total := 0.0
	for _, o := range ops {
		total = o.addForward(total, db, b)
	}
	return total
}

// BackwardTime prices one backward pass at microbatch size b.
func (ops Ops) BackwardTime(db *opdb.DB, b int) float64 {
	total := 0.0
	for _, o := range ops {
		total = o.addBackward(total, db, b)
	}
	return total
}

// NumOps returns the traced node count (for tests and reporting).
func (g *Graph) NumOps() int { return len(g.Nodes) }
