package graph

import (
	"slices"

	"repro/internal/opdb"
	"repro/internal/symbolic"
)

// SavedActivationBytes returns the symbolic per-layer bytes that must be
// stashed from forward to backward when the layer is NOT checkpointed
// (the classic "saved activations" footprint). Tensors saved by multiple
// nodes are counted once.
func (g *Graph) SavedActivationBytes() *symbolic.Expr {
	var seenBuf [32]*Tensor
	var termBuf [32]*symbolic.Expr
	seen, terms := seenBuf[:0], termBuf[:0]
	for _, n := range g.Nodes {
		for _, t := range n.Saved {
			if !slices.Contains(seen, t) {
				seen = append(seen, t)
				terms = append(terms, t.Size)
			}
		}
	}
	return symbolic.Add(terms...)
}

// BoundaryBytes returns the size of the layer's input boundary tensor,
// the only stash a checkpointed layer keeps.
func (g *Graph) BoundaryBytes() *symbolic.Expr { return g.Input.Size }

// The byte quantities of a model's sections, in Sections.Bytes order.
const (
	LayerStash    = iota // a block's saved activations
	LayerBoundary        // its boundary tensor, all a checkpointed block stashes
	LayerFwdPeak         // its forward liveness peak
	LayerBwdPeak         // its backward liveness peak
	PreStash             // the embedding's saved activations
	PostStash            // the head's saved activations
	PostBwdPeak          // the head's backward liveness peak
	NumBytes
)

// Bytes returns the sections' byte quantities, indexed by LayerStash ...
// PostBwdPeak: per-device bytes, symbolic in b and, unless every section
// is bound, TP.
func (s *Sections) Bytes() []*symbolic.Expr {
	layer := s.Layer.number()
	return []*symbolic.Expr{
		LayerStash:    s.Layer.SavedActivationBytes(),
		LayerBoundary: s.Layer.BoundaryBytes(),
		LayerFwdPeak:  layer.peakForward(),
		LayerBwdPeak:  layer.peakBackward(),
		PreStash:      s.Pre.SavedActivationBytes(),
		PostStash:     s.Post.SavedActivationBytes(),
		PostBwdPeak:   s.Post.PeakBackwardBytes(),
	}
}

// numbering is a graph's tensors numbered in trace order — the input,
// then every node's inputs, outputs and saved tensors as the tracer
// emitted them — and each node's operands by number. The liveness passes
// keep their sets as slices over this numbering and sum them in it, so a
// peak expression's term order is a function of the graph alone.
type numbering struct {
	order []*Tensor
	input int // the input's number, or -1
	nodes []operands
}

type operands struct{ ins, outs, saved []int }

func (g *Graph) number() *numbering {
	total := 0
	for _, n := range g.Nodes {
		total += len(n.Inputs) + len(n.Outputs) + len(n.Saved)
	}
	nb := &numbering{order: make([]*Tensor, 0, total+1), input: -1, nodes: make([]operands, len(g.Nodes))}
	num := func(t *Tensor) int {
		if i := slices.Index(nb.order, t); i >= 0 {
			return i
		}
		nb.order = append(nb.order, t)
		return len(nb.order) - 1
	}
	ids := make([]int, 0, total) // never regrown: the lists below are its slices
	list := func(ts []*Tensor) []int {
		start := len(ids)
		for _, t := range ts {
			ids = append(ids, num(t))
		}
		return ids[start:]
	}
	if g.Input != nil {
		nb.input = num(g.Input)
	}
	for i, n := range g.Nodes {
		nb.nodes[i] = operands{list(n.Inputs), list(n.Outputs), list(n.Saved)}
	}
	return nb
}

// sum adds up the byte sizes of the tensors that in admits, then rest.
// Add flattens a sum operand into its terms, so this is the sum of the
// tensors' sum and rest, without building the former.
func (nb *numbering) sum(in func(i int) bool, rest ...*symbolic.Expr) *symbolic.Expr {
	var buf [32]*symbolic.Expr // symbolic.Add keeps no reference to its operand list
	terms := buf[:0]
	for i, t := range nb.order {
		if in(i) {
			terms = append(terms, t.Size)
		}
	}
	return symbolic.Add(append(terms, rest...)...)
}

// PeakForwardBytes runs liveness analysis over the forward execution
// order and returns the symbolic peak of live activation bytes during one
// forward pass of this layer, including tensors that must stay stashed
// for backward. This is the intra-layer pass of the paper's memory
// analyzer.
func (g *Graph) PeakForwardBytes() *symbolic.Expr { return g.number().peakForward() }

func (nb *numbering) peakForward() *symbolic.Expr {
	lastUse := make([]int, len(nb.order))
	saved := make([]bool, len(nb.order))
	for i, n := range nb.nodes {
		for _, t := range n.ins {
			lastUse[t] = i
		}
		for _, t := range n.saved {
			saved[t] = true
		}
	}
	live := make([]bool, len(nb.order))
	if nb.input >= 0 {
		live[nb.input] = true
	}
	isLive := func(i int) bool { return live[i] }
	peaks := make([]*symbolic.Expr, 0, len(nb.nodes))
	for i, n := range nb.nodes {
		for _, t := range n.outs {
			live[t] = true
		}
		peaks = append(peaks, nb.sum(isLive))
		for _, t := range n.ins {
			if lastUse[t] == i && !saved[t] && t != nb.input {
				live[t] = false
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
func (g *Graph) PeakBackwardBytes() *symbolic.Expr { return g.number().peakBackward() }

func (nb *numbering) peakBackward() *symbolic.Expr {
	producer := make([]int, len(nb.order))
	saveUses := make([]int, len(nb.order))
	for i, n := range nb.nodes {
		for _, t := range n.outs {
			producer[t] = i
		}
		for _, t := range n.saved {
			saveUses[t]++
		}
	}
	// gradLive holds activation gradients currently materialized (a
	// gradient has its tensor's own size, fp16).
	gradLive := make([]bool, len(nb.order))
	// The incoming gradient of the block output arrives first.
	if len(nb.nodes) > 0 {
		for _, t := range nb.nodes[len(nb.nodes)-1].outs {
			gradLive[t] = true
		}
	}
	isGradLive := func(i int) bool { return gradLive[i] }
	isStashed := func(i int) bool { return saveUses[i] > 0 }
	var stash *symbolic.Expr // the stash's sum, until a tensor leaves it
	peaks := make([]*symbolic.Expr, 0, len(nb.nodes))
	for i := len(nb.nodes) - 1; i >= 0; i-- {
		n := nb.nodes[i]
		// Backward of n: output grads + input grads + remaining stash
		// coexist while the node executes.
		for _, t := range n.ins {
			gradLive[t] = true
		}
		if stash == nil {
			stash = nb.sum(isStashed)
		}
		peaks = append(peaks, nb.sum(isGradLive, stash))
		// Output grads die once their producer's backward has run.
		for _, t := range n.outs {
			if producer[t] == i {
				gradLive[t] = false
			}
		}
		// Stashed tensors are released after their last backward use.
		for _, t := range n.saved {
			if saveUses[t]--; saveUses[t] == 0 {
				stash = nil
			}
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
	tpDim            Dim
	repeat           float64
}

func (n *Node) op() op {
	return op{kind: n.Kind, mPerSample: n.MPerSample, n: n.N, k: n.K, tpDim: n.TPDim, repeat: n.Repeat}
}

// bind divides the operator's TP-split dimension by tp, as a trace at a
// literal degree divides it.
func (o op) bind(tp int) op {
	switch o.tpDim {
	case DimM:
		o.mPerSample /= tp
	case DimN:
		o.n /= tp
	case DimK:
		o.k /= tp
	}
	o.tpDim = NoDim
	return o
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
// sizes and TP degrees; its times equal those of the Graph bound to the
// degree, bit for bit. A traced op holds its TP-split dimension whole,
// and the pricing loop divides it by the degree op by op, so pricing at a
// degree builds no bound copy.
type Ops []op

// Ops extracts the graph's operators.
func (g *Graph) Ops() Ops {
	ops := make(Ops, len(g.Nodes))
	for i, n := range g.Nodes {
		ops[i] = n.op()
	}
	return ops
}

// ForwardTime prices one forward pass at tensor-parallel degree tp and
// microbatch size b.
func (ops Ops) ForwardTime(db *opdb.DB, tp, b int) float64 {
	total := 0.0
	for _, o := range ops {
		total = o.bind(tp).addForward(total, db, b)
	}
	return total
}

// BackwardTime prices one backward pass at tensor-parallel degree tp and
// microbatch size b.
func (ops Ops) BackwardTime(db *opdb.DB, tp, b int) float64 {
	total := 0.0
	for _, o := range ops {
		total = o.bind(tp).addBackward(total, db, b)
	}
	return total
}

// NumOps returns the traced node count (for tests and reporting).
func (g *Graph) NumOps() int { return len(g.Nodes) }
