// Package graph implements Mist's symbolic tracing and analysis layer
// (§5.2.1): a model is traced once into computational graphs (a
// transformer block, the embedding and the head) whose tensor sizes are
// symbolic expressions in the microbatch size b and the tensor-parallel
// degree TP, a fake backward graph is generated from the forward one (the
// paper's "fake backward graph from gradient function properties"), and
// liveness analysis over both derives symbolic peak-memory expressions.
// Operator shapes stay integers so the operator database can price them:
// each node records which shape dimension TP divides, and Bind fixes a
// degree by integer division — binding the sizes too, so a bound graph is
// symbolic in b alone.
package graph

import (
	"fmt"
	"strconv"

	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/symbolic"
)

// The symbols of the tracer's tensor-size expressions: the microbatch
// size, and the tensor-parallel degree, which Bind substitutes.
const (
	BSymbol  = "b"
	TPSymbol = "tp"
)

// Tensor is a traced activation with a symbolic byte size.
type Tensor struct {
	Name string
	Size *symbolic.Expr // per-device bytes, symbolic in b (and TP until bound)
}

// Dim names a dimension of an operator's shape.
type Dim uint8

// Operator shape dimensions, in opdb convention.
const (
	NoDim Dim = iota
	DimM      // MPerSample
	DimN
	DimK
)

// Node is one traced operator instance.
type Node struct {
	Name string
	Kind opdb.Kind

	// Shape in opdb convention; MPerSample is multiplied by the concrete
	// microbatch size at costing time.
	MPerSample, N, K int

	// TPDim is the dimension tensor parallelism divides, if any. A traced
	// graph holds that dimension whole; Bind divides it by the degree and
	// clears TPDim.
	TPDim Dim

	// Repeat scales the op cost (e.g. fused backward kernels that do
	// ~2.5x the forward work are modelled as Repeat=2.5 of the forward
	// shape).
	Repeat float64

	Inputs  []*Tensor
	Outputs []*Tensor

	// Saved lists tensors this node requires during its backward pass;
	// they must be stashed from forward to backward (or recomputed).
	Saved []*Tensor
}

// Graph is a traced transformer block (or pre/post section).
type Graph struct {
	Name  string
	Nodes []*Node

	// Input is the block's boundary activation (stashed under activation
	// checkpointing).
	Input *Tensor
}

// tracer accumulates nodes and tensors.
type tracer struct {
	g       *Graph
	counter int
	b, tp   *symbolic.Expr // the symbols, shared by every size of the trace
	tensors []Tensor       // allocated a block at a time, never regrown
}

func newTracer(name string) *tracer {
	return &tracer{g: &Graph{Name: name}, b: symbolic.Var(BSymbol), tp: symbolic.Var(TPSymbol)}
}

func (tr *tracer) tensor(name string, size *symbolic.Expr) *Tensor {
	tr.counter++
	if len(tr.tensors) == cap(tr.tensors) {
		tr.tensors = make([]Tensor, 0, 16)
	}
	tr.tensors = append(tr.tensors, Tensor{Name: name + "#" + strconv.Itoa(tr.counter), Size: size})
	return &tr.tensors[len(tr.tensors)-1]
}

func (tr *tracer) node(n *Node) *Node {
	if n.Repeat == 0 {
		n.Repeat = 1
	}
	tr.g.Nodes = append(tr.g.Nodes, n)
	return n
}

// bsize returns the byte-size expression c*b of a tensor no rank shards.
func (tr *tracer) bsize(bytesPerSample float64) *symbolic.Expr {
	return symbolic.Mul(symbolic.Const(bytesPerSample), tr.b)
}

// tpsize returns the byte-size expression (c/TP)*b of a tensor that tensor
// parallelism shards. Bound to a degree it folds to c/tp times b, the
// quotient rounded once, as a trace at a literal degree computes it.
func (tr *tracer) tpsize(bytesPerSample float64) *symbolic.Expr {
	return symbolic.Mul(symbolic.Div(symbolic.Const(bytesPerSample), tr.tp), tr.b)
}

const fp16 = 2 // bytes per fp16 element

// Sections is a model traced once, its tensor sizes symbolic in b and TP.
type Sections struct {
	Layer, Pre, Post *Graph // one transformer block, the embedding, the head
}

// Trace traces cfg's sections at sequence length seq, with or without
// FlashAttention, for every tensor-parallel degree at once: bind a
// section to a degree that CheckTP accepts before pricing it.
func Trace(cfg model.Config, seq int, flash bool) (*Sections, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sections{Layer: traceLayer(cfg, seq, flash), Pre: tracePre(cfg, seq), Post: tracePost(cfg, seq)}, nil
}

// CheckTP reports whether cfg splits tp ways: tp must divide the head
// count.
func CheckTP(cfg model.Config, tp int) error {
	if tp <= 0 || cfg.Heads%tp != 0 {
		return fmt.Errorf("graph: tp=%d does not divide heads=%d", tp, cfg.Heads)
	}
	return nil
}

// TraceLayer traces one transformer block of cfg at sequence length seq
// under tensor parallelism tp, with or without FlashAttention. Tensor
// sizes are per-device bytes, symbolic in b.
func TraceLayer(cfg model.Config, seq, tp int, flash bool) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := CheckTP(cfg, tp); err != nil {
		return nil, err
	}
	return traceLayer(cfg, seq, flash).Bind(tp), nil
}

// Bind returns the graph at tensor-parallel degree tp: every tensor's
// size with TP substituted, and every node's TP-split dimension divided
// by tp. Nodes that share a tensor share its bound copy, so liveness over
// the bound graph sees the traced one's.
func (g *Graph) Bind(tp int) *Graph {
	env := symbolic.Env{TPSymbol: float64(tp)}
	bound := map[*Tensor]*Tensor{}
	one := func(t *Tensor) *Tensor {
		bt, ok := bound[t]
		if !ok {
			bt = &Tensor{Name: t.Name, Size: t.Size.Subs(env)}
			bound[t] = bt
		}
		return bt
	}
	bind := func(ts []*Tensor) []*Tensor {
		if ts == nil {
			return nil
		}
		out := make([]*Tensor, len(ts))
		for i, t := range ts {
			out[i] = one(t)
		}
		return out
	}
	out := &Graph{Name: fmt.Sprintf("%s-tp%d", g.Name, tp), Nodes: make([]*Node, len(g.Nodes))}
	if g.Input != nil {
		out.Input = one(g.Input)
	}
	for i, n := range g.Nodes {
		bn := *n
		o := n.op().bind(tp)
		bn.MPerSample, bn.N, bn.K, bn.TPDim = o.mPerSample, o.n, o.k, NoDim
		bn.Inputs, bn.Outputs, bn.Saved = bind(n.Inputs), bind(n.Outputs), bind(n.Saved)
		out.Nodes[i] = &bn
	}
	return out
}

// traceLayer traces one transformer block of a validated cfg.
func traceLayer(cfg model.Config, seq int, flash bool) *Graph {
	h := cfg.Hidden
	ffn := cfg.FFNHidden
	a := cfg.Heads
	s := seq

	tr := newTracer(cfg.Name + "-layer")
	g := tr.g

	fullSize := tr.bsize(fp16 * float64(s) * float64(h)) // one expression for every full-width tensor
	full := func(name string) *Tensor { return tr.tensor(name, fullSize) }
	shard := func(name string, width int) *Tensor {
		return tr.tensor(name, tr.tpsize(fp16*float64(s)*float64(width)))
	}

	x := full("x")
	g.Input = x

	// --- Attention path ---
	ln1Out := full("ln1_out")
	tr.node(&Node{
		Name: "ln1", Kind: opdb.LayerNorm,
		MPerSample: 1, N: s, K: h,
		Inputs: []*Tensor{x}, Outputs: []*Tensor{ln1Out},
		Saved: []*Tensor{x},
	})

	qkv := shard("qkv", 3*h)
	tr.node(&Node{
		Name: "qkv_proj", Kind: opdb.Matmul,
		MPerSample: s, N: 3 * h, K: h, TPDim: DimN,
		Inputs: []*Tensor{ln1Out}, Outputs: []*Tensor{qkv},
		Saved: []*Tensor{ln1Out},
	})

	attnOut := shard("attn_out", h)
	if flash {
		// Fused kernel: saves Q,K,V (the qkv tensor) and its output plus
		// O(b*a*s) softmax statistics (negligible, folded into output).
		tr.node(&Node{
			Name: "flash_attn", Kind: opdb.FlashAttn,
			MPerSample: 1, N: s, K: h, TPDim: DimK,
			Inputs: []*Tensor{qkv}, Outputs: []*Tensor{attnOut},
			Saved: []*Tensor{qkv, attnOut},
		})
	} else {
		// Unfused: scores = QK^T materializes a (a/tp, s, s) tensor; the
		// softmax output is saved for backward (dropout is disabled per
		// the paper's methodology, so no mask is stashed). TP divides a,
		// so a/tp and every product after it are exact.
		scoreSize := tr.tpsize(fp16 * float64(a) * float64(s) * float64(s))
		scores := tr.tensor("attn_scores", scoreSize)
		probs := tr.tensor("attn_probs", scoreSize)
		tr.node(&Node{
			Name: "attn_core", Kind: opdb.CoreAttn,
			MPerSample: 1, N: s, K: h, TPDim: DimK,
			Inputs: []*Tensor{qkv}, Outputs: []*Tensor{scores, attnOut},
			Saved: []*Tensor{qkv, probs},
		})
		tr.node(&Node{
			Name: "attn_softmax", Kind: opdb.Softmax,
			MPerSample: a, N: s, K: s, TPDim: DimM,
			Inputs: []*Tensor{scores}, Outputs: []*Tensor{probs},
			Saved: []*Tensor{probs},
		})
	}

	projOut := full("attn_proj_out")
	tr.node(&Node{
		Name: "attn_out_proj", Kind: opdb.Matmul,
		MPerSample: s, N: h, K: h, TPDim: DimK,
		Inputs: []*Tensor{attnOut}, Outputs: []*Tensor{projOut},
		Saved: []*Tensor{attnOut},
	})

	if cfg.Family == model.Falcon {
		// Parallel attention+MLP: the MLP reads ln1Out as well, and a
		// single residual add merges both paths (one TP all-reduce total,
		// accounted by the communication model, not the graph).
		mlpOut := traceMLP(tr, cfg, ln1Out, s, h, ffn)
		sum := full("block_out")
		tr.node(&Node{
			Name: "residual", Kind: opdb.Elementwise,
			MPerSample: 3, N: s, K: h, // x + attn + mlp
			Inputs: []*Tensor{x, projOut, mlpOut}, Outputs: []*Tensor{sum},
		})
		return g
	}

	res1 := full("res1")
	tr.node(&Node{
		Name: "residual1", Kind: opdb.Elementwise,
		MPerSample: 2, N: s, K: h,
		Inputs: []*Tensor{x, projOut}, Outputs: []*Tensor{res1},
	})

	// --- MLP path ---
	ln2Out := full("ln2_out")
	tr.node(&Node{
		Name: "ln2", Kind: opdb.LayerNorm,
		MPerSample: 1, N: s, K: h,
		Inputs: []*Tensor{res1}, Outputs: []*Tensor{ln2Out},
		Saved: []*Tensor{res1},
	})

	mlpOut := traceMLP(tr, cfg, ln2Out, s, h, ffn)

	blockOut := full("block_out")
	tr.node(&Node{
		Name: "residual2", Kind: opdb.Elementwise,
		MPerSample: 2, N: s, K: h,
		Inputs: []*Tensor{res1, mlpOut}, Outputs: []*Tensor{blockOut},
	})
	return g
}

// traceMLP traces the feed-forward path: mixture-of-experts (routed),
// gated (LLaMA), or plain.
func traceMLP(tr *tracer, cfg model.Config, in *Tensor, s, h, ffn int) *Tensor {
	if cfg.IsMoE() {
		return traceMoEMLP(tr, cfg, in, s, h, ffn)
	}
	interSize := tr.tpsize(fp16 * float64(s) * float64(ffn))
	inter := func(name string) *Tensor { return tr.tensor(name, interSize) }
	if cfg.UsesGatedMLP() {
		up := inter("mlp_up")
		gate := inter("mlp_gate")
		act := inter("mlp_act")
		tr.node(&Node{
			Name: "mlp_up_proj", Kind: opdb.Matmul,
			MPerSample: s, N: ffn, K: h, TPDim: DimN,
			Inputs: []*Tensor{in}, Outputs: []*Tensor{up},
			Saved: []*Tensor{in},
		})
		tr.node(&Node{
			Name: "mlp_gate_proj", Kind: opdb.Matmul,
			MPerSample: s, N: ffn, K: h, TPDim: DimN,
			Inputs: []*Tensor{in}, Outputs: []*Tensor{gate},
		})
		tr.node(&Node{
			Name: "mlp_silu_mul", Kind: opdb.Gelu,
			MPerSample: 1, N: s, K: ffn, TPDim: DimK,
			Inputs: []*Tensor{up, gate}, Outputs: []*Tensor{act},
			Saved: []*Tensor{up, gate},
		})
		down := tr.tensor("mlp_down", tr.bsize(fp16*float64(s)*float64(h)))
		tr.node(&Node{
			Name: "mlp_down_proj", Kind: opdb.Matmul,
			MPerSample: s, N: h, K: ffn, TPDim: DimK,
			Inputs: []*Tensor{act}, Outputs: []*Tensor{down},
			Saved: []*Tensor{act},
		})
		return down
	}
	up := inter("mlp_up")
	act := inter("mlp_act")
	tr.node(&Node{
		Name: "mlp_up_proj", Kind: opdb.Matmul,
		MPerSample: s, N: ffn, K: h, TPDim: DimN,
		Inputs: []*Tensor{in}, Outputs: []*Tensor{up},
		Saved: []*Tensor{in},
	})
	tr.node(&Node{
		Name: "mlp_act", Kind: opdb.Gelu,
		MPerSample: 1, N: s, K: ffn, TPDim: DimK,
		Inputs: []*Tensor{up}, Outputs: []*Tensor{act},
		Saved: []*Tensor{up},
	})
	down := tr.tensor("mlp_down", tr.bsize(fp16*float64(s)*float64(h)))
	tr.node(&Node{
		Name: "mlp_down_proj", Kind: opdb.Matmul,
		MPerSample: s, N: h, K: ffn, TPDim: DimK,
		Inputs: []*Tensor{act}, Outputs: []*Tensor{down},
		Saved: []*Tensor{act},
	})
	return down
}

// traceMoEMLP traces a routed mixture-of-experts MLP: router projection
// and softmax, token dispatch, per-expert up/act/down GEMMs at the
// capacity factor, and the combine. Per-device token counts assume
// expert parallelism over the data-parallel group with a balanced
// router; the expert GEMMs are traced in min(E, 8) fragments to expose
// the kernel-efficiency loss of splitting tokens across experts. The
// all-to-all exchanges are communication, priced by the schedule layer.
func traceMoEMLP(tr *tracer, cfg model.Config, in *Tensor, s, h, ffn int) *Tensor {
	e := cfg.NumExperts
	topk := float64(cfg.TopK)
	cap := model.CapacityFactor

	// Router: (b*s, h) x (h, E) projection + softmax over experts.
	probs := tr.tensor("router_probs", tr.bsize(fp16*float64(s)*float64(e)))
	tr.node(&Node{
		Name: "router", Kind: opdb.Matmul,
		MPerSample: s, N: e, K: h,
		Inputs: []*Tensor{in}, Outputs: []*Tensor{probs},
		Saved: []*Tensor{in},
	})
	probsSm := tr.tensor("router_softmax", tr.bsize(fp16*float64(s)*float64(e)))
	tr.node(&Node{
		Name: "router_softmax", Kind: opdb.Softmax,
		MPerSample: 1, N: s, K: e,
		Inputs: []*Tensor{probs}, Outputs: []*Tensor{probsSm},
		Saved: []*Tensor{probsSm},
	})

	// Dispatched tokens per device: topK * capacity copies of the input.
	dispTokens := cap * topk * float64(s) // per sample
	disp := tr.tensor("moe_dispatch", tr.bsize(fp16*dispTokens*float64(h)))
	tr.node(&Node{
		Name: "moe_dispatch", Kind: opdb.Elementwise,
		MPerSample: int(topk), N: s, K: h,
		Inputs: []*Tensor{in, probsSm}, Outputs: []*Tensor{disp},
		Saved: []*Tensor{disp},
	})

	// Expert GEMMs, fragmented across experts (smaller M per GEMM).
	frag := e
	if frag > 8 {
		frag = 8
	}
	mPerFrag := int(dispTokens)/frag + 1
	up := tr.tensor("moe_up", tr.tpsize(fp16*dispTokens*float64(ffn)))
	tr.node(&Node{
		Name: "moe_up_proj", Kind: opdb.Matmul,
		MPerSample: mPerFrag, N: ffn, K: h, TPDim: DimN,
		Repeat: float64(frag),
		Inputs: []*Tensor{disp}, Outputs: []*Tensor{up},
	})
	act := tr.tensor("moe_act", tr.tpsize(fp16*dispTokens*float64(ffn)))
	tr.node(&Node{
		Name: "moe_act", Kind: opdb.Gelu,
		MPerSample: int(topk), N: s, K: ffn, TPDim: DimK,
		Inputs: []*Tensor{up}, Outputs: []*Tensor{act},
		Saved: []*Tensor{up},
	})
	down := tr.tensor("moe_down", tr.bsize(fp16*dispTokens*float64(h)))
	tr.node(&Node{
		Name: "moe_down_proj", Kind: opdb.Matmul,
		MPerSample: mPerFrag, N: h, K: ffn, TPDim: DimK,
		Repeat: float64(frag),
		Inputs: []*Tensor{act}, Outputs: []*Tensor{down},
		Saved: []*Tensor{act},
	})

	// Combine: weighted sum of expert outputs back to (b*s, h).
	out := tr.tensor("moe_combine", tr.bsize(fp16*float64(s)*float64(h)))
	tr.node(&Node{
		Name: "moe_combine", Kind: opdb.Elementwise,
		MPerSample: int(topk), N: s, K: h,
		Inputs: []*Tensor{down, probsSm}, Outputs: []*Tensor{out},
	})
	return out
}

// tracePre traces the embedding section (token + optional positional
// embedding). Vocab-parallel embedding shards the table across TP ranks.
func tracePre(cfg model.Config, seq int) *Graph {
	tr := newTracer(cfg.Name + "-pre")
	ids := tr.tensor("input_ids", tr.bsize(8*float64(seq))) // int64 ids
	tr.g.Input = ids
	emb := tr.tensor("embed_out", tr.bsize(fp16*float64(seq)*float64(cfg.Hidden)))
	tr.node(&Node{
		Name: "embedding", Kind: opdb.Embedding,
		MPerSample: 1, N: seq, K: cfg.Hidden,
		Inputs: []*Tensor{ids}, Outputs: []*Tensor{emb},
		Saved: []*Tensor{ids},
	})
	return tr.g
}

// tracePost traces the final norm, LM head projection and loss.
func tracePost(cfg model.Config, seq int) *Graph {
	tr := newTracer(cfg.Name + "-post")
	h := cfg.Hidden
	x := tr.tensor("final_in", tr.bsize(fp16*float64(seq)*float64(h)))
	tr.g.Input = x
	lnOut := tr.tensor("final_ln", tr.bsize(fp16*float64(seq)*float64(h)))
	tr.node(&Node{
		Name: "final_ln", Kind: opdb.LayerNorm,
		MPerSample: 1, N: seq, K: h,
		Inputs: []*Tensor{x}, Outputs: []*Tensor{lnOut},
		Saved: []*Tensor{x},
	})
	logits := tr.tensor("logits", tr.tpsize(fp16*float64(seq)*float64(cfg.Vocab)))
	tr.node(&Node{
		Name: "lm_head", Kind: opdb.Matmul,
		MPerSample: seq, N: cfg.Vocab, K: h, TPDim: DimN,
		Inputs: []*Tensor{lnOut}, Outputs: []*Tensor{logits},
		Saved: []*Tensor{lnOut},
	})
	loss := tr.tensor("loss", tr.bsize(4*float64(seq)))
	tr.node(&Node{
		Name: "cross_entropy", Kind: opdb.CrossEntropy,
		MPerSample: 1, N: seq, K: cfg.Vocab, TPDim: DimK,
		Inputs: []*Tensor{logits}, Outputs: []*Tensor{loss},
		Saved: []*Tensor{logits},
	})
	return tr.g
}
