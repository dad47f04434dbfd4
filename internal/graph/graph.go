// Package graph implements Mist's symbolic tracing and analysis layer
// (§5.2.1): a transformer block is traced into a computational graph whose
// tensor sizes are symbolic expressions in the microbatch size b, a fake
// backward graph is generated from the forward one (the paper's "fake
// backward graph from gradient function properties"), and liveness
// analysis over both derives symbolic peak-memory expressions. Operator
// shapes remain concrete per (seq, tp) pair so they can be priced by the
// operator database; the per-stage planner re-traces for each tensor-
// parallel degree, which is cheap (a few dozen nodes).
package graph

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/symbolic"
)

// BSymbol is the symbolic microbatch-size variable used in all tensor-size
// expressions produced by the tracer.
const BSymbol = "b"

// Tensor is a traced activation with a symbolic byte size.
type Tensor struct {
	Name string
	Size *symbolic.Expr // bytes, symbolic in b
}

// Node is one traced operator instance.
type Node struct {
	Name string
	Kind opdb.Kind

	// Shape in opdb convention; MPerSample is multiplied by the concrete
	// microbatch size at costing time.
	MPerSample, N, K int

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
}

func (tr *tracer) tensor(name string, size *symbolic.Expr) *Tensor {
	tr.counter++
	return &Tensor{Name: fmt.Sprintf("%s#%d", name, tr.counter), Size: size}
}

func (tr *tracer) node(n *Node) *Node {
	if n.Repeat == 0 {
		n.Repeat = 1
	}
	tr.g.Nodes = append(tr.g.Nodes, n)
	return n
}

// bsize returns a byte-size expression c*b.
func bsize(bytesPerSample float64) *symbolic.Expr {
	return symbolic.Mul(symbolic.Const(bytesPerSample), symbolic.Var(BSymbol))
}

const fp16 = 2 // bytes per fp16 element

// TraceLayer traces one transformer block of cfg at sequence length seq
// under tensor parallelism tp, with or without FlashAttention. Tensor
// sizes are per-device bytes, symbolic in b.
func TraceLayer(cfg model.Config, seq, tp int, flash bool) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tp <= 0 || cfg.Heads%tp != 0 {
		return nil, fmt.Errorf("graph: tp=%d does not divide heads=%d", tp, cfg.Heads)
	}
	h := cfg.Hidden
	ffn := cfg.FFNHidden
	a := cfg.Heads
	s := seq
	t := float64(tp)

	tr := &tracer{g: &Graph{Name: fmt.Sprintf("%s-layer-tp%d", cfg.Name, tp)}}
	g := tr.g

	full := func(name string) *Tensor { return tr.tensor(name, bsize(fp16*float64(s)*float64(h))) }
	shard := func(name string, width int) *Tensor {
		return tr.tensor(name, bsize(fp16*float64(s)*float64(width)/t))
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
		MPerSample: s, N: 3 * h / tp, K: h,
		Inputs: []*Tensor{ln1Out}, Outputs: []*Tensor{qkv},
		Saved: []*Tensor{ln1Out},
	})

	attnOut := shard("attn_out", h)
	if flash {
		// Fused kernel: saves Q,K,V (the qkv tensor) and its output plus
		// O(b*a*s) softmax statistics (negligible, folded into output).
		tr.node(&Node{
			Name: "flash_attn", Kind: opdb.FlashAttn,
			MPerSample: 1, N: s, K: h / tp,
			Inputs: []*Tensor{qkv}, Outputs: []*Tensor{attnOut},
			Saved: []*Tensor{qkv, attnOut},
		})
	} else {
		// Unfused: scores = QK^T materializes a (a/tp, s, s) tensor; the
		// softmax output is saved for backward (dropout is disabled per
		// the paper's methodology, so no mask is stashed).
		scoreSize := bsize(fp16 * float64(a) / t * float64(s) * float64(s))
		scores := tr.tensor("attn_scores", scoreSize)
		probs := tr.tensor("attn_probs", scoreSize)
		tr.node(&Node{
			Name: "attn_core", Kind: opdb.CoreAttn,
			MPerSample: 1, N: s, K: h / tp,
			Inputs: []*Tensor{qkv}, Outputs: []*Tensor{scores, attnOut},
			Saved: []*Tensor{qkv, probs},
		})
		tr.node(&Node{
			Name: "attn_softmax", Kind: opdb.Softmax,
			MPerSample: a / tp, N: s, K: s,
			Inputs: []*Tensor{scores}, Outputs: []*Tensor{probs},
			Saved: []*Tensor{probs},
		})
	}

	projOut := full("attn_proj_out")
	tr.node(&Node{
		Name: "attn_out_proj", Kind: opdb.Matmul,
		MPerSample: s, N: h, K: h / tp,
		Inputs: []*Tensor{attnOut}, Outputs: []*Tensor{projOut},
		Saved: []*Tensor{attnOut},
	})

	if cfg.Family == model.Falcon {
		// Parallel attention+MLP: the MLP reads ln1Out as well, and a
		// single residual add merges both paths (one TP all-reduce total,
		// accounted by the communication model, not the graph).
		mlpOut := traceMLP(tr, cfg, ln1Out, s, h, ffn, tp)
		sum := full("block_out")
		tr.node(&Node{
			Name: "residual", Kind: opdb.Elementwise,
			MPerSample: 3, N: s, K: h, // x + attn + mlp
			Inputs: []*Tensor{x, projOut, mlpOut}, Outputs: []*Tensor{sum},
		})
		return g, nil
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

	mlpOut := traceMLP(tr, cfg, ln2Out, s, h, ffn, tp)

	blockOut := full("block_out")
	tr.node(&Node{
		Name: "residual2", Kind: opdb.Elementwise,
		MPerSample: 2, N: s, K: h,
		Inputs: []*Tensor{res1, mlpOut}, Outputs: []*Tensor{blockOut},
	})
	return g, nil
}

// traceMLP traces the feed-forward path: mixture-of-experts (routed),
// gated (LLaMA), or plain.
func traceMLP(tr *tracer, cfg model.Config, in *Tensor, s, h, ffn, tp int) *Tensor {
	if cfg.IsMoE() {
		return traceMoEMLP(tr, cfg, in, s, h, ffn, tp)
	}
	t := float64(tp)
	inter := func(name string) *Tensor {
		return tr.tensor(name, bsize(fp16*float64(s)*float64(ffn)/t))
	}
	if cfg.UsesGatedMLP() {
		up := inter("mlp_up")
		gate := inter("mlp_gate")
		act := inter("mlp_act")
		tr.node(&Node{
			Name: "mlp_up_proj", Kind: opdb.Matmul,
			MPerSample: s, N: ffn / tp, K: h,
			Inputs: []*Tensor{in}, Outputs: []*Tensor{up},
			Saved: []*Tensor{in},
		})
		tr.node(&Node{
			Name: "mlp_gate_proj", Kind: opdb.Matmul,
			MPerSample: s, N: ffn / tp, K: h,
			Inputs: []*Tensor{in}, Outputs: []*Tensor{gate},
		})
		tr.node(&Node{
			Name: "mlp_silu_mul", Kind: opdb.Gelu,
			MPerSample: 1, N: s, K: ffn / tp,
			Inputs: []*Tensor{up, gate}, Outputs: []*Tensor{act},
			Saved: []*Tensor{up, gate},
		})
		down := tr.tensor("mlp_down", bsize(fp16*float64(s)*float64(h)))
		tr.node(&Node{
			Name: "mlp_down_proj", Kind: opdb.Matmul,
			MPerSample: s, N: h, K: ffn / tp,
			Inputs: []*Tensor{act}, Outputs: []*Tensor{down},
			Saved: []*Tensor{act},
		})
		return down
	}
	up := inter("mlp_up")
	act := inter("mlp_act")
	tr.node(&Node{
		Name: "mlp_up_proj", Kind: opdb.Matmul,
		MPerSample: s, N: ffn / tp, K: h,
		Inputs: []*Tensor{in}, Outputs: []*Tensor{up},
		Saved: []*Tensor{in},
	})
	tr.node(&Node{
		Name: "mlp_act", Kind: opdb.Gelu,
		MPerSample: 1, N: s, K: ffn / tp,
		Inputs: []*Tensor{up}, Outputs: []*Tensor{act},
		Saved: []*Tensor{up},
	})
	down := tr.tensor("mlp_down", bsize(fp16*float64(s)*float64(h)))
	tr.node(&Node{
		Name: "mlp_down_proj", Kind: opdb.Matmul,
		MPerSample: s, N: h, K: ffn / tp,
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
func traceMoEMLP(tr *tracer, cfg model.Config, in *Tensor, s, h, ffn, tp int) *Tensor {
	t := float64(tp)
	e := cfg.NumExperts
	topk := float64(cfg.TopK)
	cap := model.CapacityFactor

	// Router: (b*s, h) x (h, E) projection + softmax over experts.
	probs := tr.tensor("router_probs", bsize(fp16*float64(s)*float64(e)))
	tr.node(&Node{
		Name: "router", Kind: opdb.Matmul,
		MPerSample: s, N: e, K: h,
		Inputs: []*Tensor{in}, Outputs: []*Tensor{probs},
		Saved: []*Tensor{in},
	})
	probsSm := tr.tensor("router_softmax", bsize(fp16*float64(s)*float64(e)))
	tr.node(&Node{
		Name: "router_softmax", Kind: opdb.Softmax,
		MPerSample: 1, N: s, K: e,
		Inputs: []*Tensor{probs}, Outputs: []*Tensor{probsSm},
		Saved: []*Tensor{probsSm},
	})

	// Dispatched tokens per device: topK * capacity copies of the input.
	dispTokens := cap * topk * float64(s) // per sample
	disp := tr.tensor("moe_dispatch", bsize(fp16*dispTokens*float64(h)))
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
	up := tr.tensor("moe_up", bsize(fp16*dispTokens*float64(ffn)/t))
	tr.node(&Node{
		Name: "moe_up_proj", Kind: opdb.Matmul,
		MPerSample: mPerFrag, N: ffn / tp, K: h,
		Repeat: float64(frag),
		Inputs: []*Tensor{disp}, Outputs: []*Tensor{up},
	})
	act := tr.tensor("moe_act", bsize(fp16*dispTokens*float64(ffn)/t))
	tr.node(&Node{
		Name: "moe_act", Kind: opdb.Gelu,
		MPerSample: int(topk), N: s, K: ffn / tp,
		Inputs: []*Tensor{up}, Outputs: []*Tensor{act},
		Saved: []*Tensor{up},
	})
	down := tr.tensor("moe_down", bsize(fp16*dispTokens*float64(h)))
	tr.node(&Node{
		Name: "moe_down_proj", Kind: opdb.Matmul,
		MPerSample: mPerFrag, N: h, K: ffn / tp,
		Repeat: float64(frag),
		Inputs: []*Tensor{act}, Outputs: []*Tensor{down},
		Saved: []*Tensor{act},
	})

	// Combine: weighted sum of expert outputs back to (b*s, h).
	out := tr.tensor("moe_combine", bsize(fp16*float64(s)*float64(h)))
	tr.node(&Node{
		Name: "moe_combine", Kind: opdb.Elementwise,
		MPerSample: int(topk), N: s, K: h,
		Inputs: []*Tensor{down, probsSm}, Outputs: []*Tensor{out},
	})
	return out
}

// TracePreLayer traces the embedding section (token + optional positional
// embedding). Vocab-parallel embedding shards the table across TP ranks.
func TracePreLayer(cfg model.Config, seq, tp int) *Graph {
	tr := &tracer{g: &Graph{Name: fmt.Sprintf("%s-pre-tp%d", cfg.Name, tp)}}
	ids := tr.tensor("input_ids", bsize(8*float64(seq))) // int64 ids
	tr.g.Input = ids
	emb := tr.tensor("embed_out", bsize(fp16*float64(seq)*float64(cfg.Hidden)))
	tr.node(&Node{
		Name: "embedding", Kind: opdb.Embedding,
		MPerSample: 1, N: seq, K: cfg.Hidden,
		Inputs: []*Tensor{ids}, Outputs: []*Tensor{emb},
		Saved: []*Tensor{ids},
	})
	return tr.g
}

// TracePostLayer traces the final norm, LM head projection and loss.
func TracePostLayer(cfg model.Config, seq, tp int) *Graph {
	tr := &tracer{g: &Graph{Name: fmt.Sprintf("%s-post-tp%d", cfg.Name, tp)}}
	h := cfg.Hidden
	x := tr.tensor("final_in", bsize(fp16*float64(seq)*float64(h)))
	tr.g.Input = x
	lnOut := tr.tensor("final_ln", bsize(fp16*float64(seq)*float64(h)))
	tr.node(&Node{
		Name: "final_ln", Kind: opdb.LayerNorm,
		MPerSample: 1, N: seq, K: h,
		Inputs: []*Tensor{x}, Outputs: []*Tensor{lnOut},
		Saved: []*Tensor{x},
	})
	logits := tr.tensor("logits", bsize(fp16*float64(seq)*float64(cfg.Vocab)/float64(tp)))
	tr.node(&Node{
		Name: "lm_head", Kind: opdb.Matmul,
		MPerSample: seq, N: cfg.Vocab / tp, K: h,
		Inputs: []*Tensor{lnOut}, Outputs: []*Tensor{logits},
		Saved: []*Tensor{lnOut},
	})
	loss := tr.tensor("loss", bsize(4*float64(seq)))
	tr.node(&Node{
		Name: "cross_entropy", Kind: opdb.CrossEntropy,
		MPerSample: 1, N: seq, K: cfg.Vocab / tp,
		Inputs: []*Tensor{logits}, Outputs: []*Tensor{loss},
		Saved: []*Tensor{logits},
	})
	return tr.g
}
