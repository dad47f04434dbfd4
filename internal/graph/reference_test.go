package graph

import (
	"fmt"
	"testing"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/symbolic"
)

// The tracer as it was when tensor parallelism was a literal: one trace
// per TP degree, every TP-split size and dimension divided in plain Go at
// trace time. It is kept verbatim, renamed, as the executable
// specification the symbolic tracer bound to a degree must equal
// (TestBoundTraceMatchesReference).

// bsize returns a byte-size expression c*b.
func bsize(bytesPerSample float64) *symbolic.Expr {
	return symbolic.Mul(symbolic.Const(bytesPerSample), symbolic.Var(BSymbol))
}

// oracleModels is every catalog model plus one mixture-of-experts model.
func oracleModels() []model.Config {
	var cfgs []model.Config
	for _, name := range model.Names() {
		cfgs = append(cfgs, model.MustByName(name))
	}
	return append(cfgs, model.MustMoEByName("gpt3-1.3b", 8, 2))
}

// TestBoundTraceMatchesReference: the one symbolic trace, bound to a TP
// degree, is the literal-degree trace — every byte quantity and both
// operator times of every section compare with ==, for every catalog
// model and a mixture-of-experts one, flash on and off, every degree up
// to 64 that divides the head count, and b in 1..64. At a power-of-two
// degree (1, 2, 4 and 8 are the search's) the byte quantities are also
// checked through one program compiled over (b, TP) from the unbound
// sections, which is what schedule.Analyzer evaluates, and both operator
// times through the unbound Ops priced at the degree, which is how it
// prices them. The bound graphs
// agree at every degree because Bind folds each size to the literal
// trace's constant, c/tp rounded once (the unfused attention scores'
// by an exact product: TP divides the head count). The program agrees
// at a power of two because there every per-sample size, sum and
// product is a dyadic rational well inside float64's mantissa, so no
// operation rounds and its term order cannot matter; elsewhere its sums
// may round differently in the last place.
func TestBoundTraceMatchesReference(t *testing.T) {
	db := opdb.New(hardware.L4())
	vars := []string{BSymbol, TPSymbol}
	const seq = 2048
	for _, cfg := range oracleModels() {
		for _, flash := range []bool{false, true} {
			secs, err := Trace(cfg, seq, flash)
			if err != nil {
				t.Fatal(err)
			}
			prog := symbolic.MustCompile(secs.Bytes(), vars)
			ops := [3]Ops{secs.Layer.Ops(), secs.Pre.Ops(), secs.Post.Ops()}
			for tp := 1; tp <= 64; tp++ {
				if CheckTP(cfg, tp) != nil {
					continue
				}
				pow2 := tp&(tp-1) == 0
				refLayer, err := referenceTraceLayer(cfg, seq, tp, flash)
				if err != nil {
					t.Fatal(err)
				}
				ref := &Sections{Layer: refLayer, Pre: referenceTracePreLayer(cfg, seq, tp), Post: referenceTracePostLayer(cfg, seq, tp)}
				bound := &Sections{Layer: secs.Layer.Bind(tp), Pre: secs.Pre.Bind(tp), Post: secs.Post.Bind(tp)}
				refBytes, boundBytes := ref.Bytes(), bound.Bytes()
				refGraphs := [3]*Graph{ref.Layer, ref.Pre, ref.Post}
				boundGraphs := [3]*Graph{bound.Layer, bound.Pre, bound.Post}
				for b := 1; b <= 64; b++ {
					env := symbolic.Env{BSymbol: float64(b)}
					compiled := prog.EvalFrame([]float64{float64(b), float64(tp)}, nil, nil)
					for q := range NumBytes {
						want := refBytes[q].MustEval(env)
						if got := boundBytes[q].MustEval(env); got != want {
							t.Fatalf("%s flash=%v tp=%d b=%d: bound byte quantity %d is %v, reference %v", cfg.Name, flash, tp, b, q, got, want)
						}
						if got := compiled[q]; pow2 && got != want {
							t.Fatalf("%s flash=%v tp=%d b=%d: compiled byte quantity %d is %v, reference %v", cfg.Name, flash, tp, b, q, got, want)
						}
					}
					for i, rg := range refGraphs {
						fwd, bwd := rg.ForwardTime(db, b), rg.BackwardTime(db, b)
						if got := boundGraphs[i].ForwardTime(db, b); got != fwd {
							t.Fatalf("%s flash=%v tp=%d b=%d: %s forward time %v, reference %v", cfg.Name, flash, tp, b, rg.Name, got, fwd)
						}
						if got := boundGraphs[i].BackwardTime(db, b); got != bwd {
							t.Fatalf("%s flash=%v tp=%d b=%d: %s backward time %v, reference %v", cfg.Name, flash, tp, b, rg.Name, got, bwd)
						}
						if got := ops[i].ForwardTime(db, tp, b); got != fwd {
							t.Fatalf("%s flash=%v tp=%d b=%d: %s ops forward time at the degree %v, reference %v", cfg.Name, flash, tp, b, rg.Name, got, fwd)
						}
						if got := ops[i].BackwardTime(db, tp, b); got != bwd {
							t.Fatalf("%s flash=%v tp=%d b=%d: %s ops backward time at the degree %v, reference %v", cfg.Name, flash, tp, b, rg.Name, got, bwd)
						}
					}
				}
			}
		}
	}
}

// TestTraceLayerErrorsMatchReference: a degree that does not divide the
// head count, a non-positive one and an invalid model fail as the
// literal-degree tracer failed, with the same message.
func TestTraceLayerErrorsMatchReference(t *testing.T) {
	cfgs := append(oracleModels(), model.Config{Name: "empty"})
	for _, cfg := range cfgs {
		for _, tp := range []int{-1, 0, 1, 2, 3, 5, 8} {
			_, err := TraceLayer(cfg, 2048, tp, true)
			_, want := referenceTraceLayer(cfg, 2048, tp, true)
			if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
				t.Errorf("%s tp=%d: error %v, reference %v", cfg.Name, tp, err, want)
			}
		}
	}
}

// TestPropertyBytesMonotone is ROADMAP 2 (c) at trace level: every
// section byte quantity, evaluated from the one program over (b, TP), is
// non-increasing in TP and non-decreasing in b — for every model above,
// flash on and off, three sequence lengths, every valid power-of-two
// degree up to 8 and b in 1..64.
func TestPropertyBytesMonotone(t *testing.T) {
	vars := []string{BSymbol, TPSymbol}
	for _, cfg := range oracleModels() {
		for _, seq := range []int{1024, 2048, 4096} {
			for _, flash := range []bool{false, true} {
				secs, err := Trace(cfg, seq, flash)
				if err != nil {
					t.Fatal(err)
				}
				prog := symbolic.MustCompile(secs.Bytes(), vars)
				var prev []float64 // the row at the previous degree
				for tp := 1; tp <= 8; tp *= 2 {
					if CheckTP(cfg, tp) != nil {
						continue
					}
					row := make([]float64, 0, 64*NumBytes)
					for b := 1; b <= 64; b++ {
						out := prog.EvalFrame([]float64{float64(b), float64(tp)}, nil, nil)
						for q, v := range out {
							if b > 1 && v < row[len(row)-NumBytes] {
								t.Fatalf("%s seq=%d flash=%v tp=%d: byte quantity %d falls from %v to %v as b grows to %d", cfg.Name, seq, flash, tp, q, row[len(row)-NumBytes], v, b)
							}
							if prev != nil && v > prev[len(row)] {
								t.Fatalf("%s seq=%d flash=%v b=%d: byte quantity %d grows from %v to %v as tp grows to %d", cfg.Name, seq, flash, b, q, prev[len(row)], v, tp)
							}
							row = append(row, v)
						}
					}
					prev = row
				}
			}
		}
	}
}

// referenceTraceLayer traces one transformer block of cfg at sequence length seq
// under tensor parallelism tp, with or without FlashAttention. Tensor
// sizes are per-device bytes, symbolic in b.
func referenceTraceLayer(cfg model.Config, seq, tp int, flash bool) (*Graph, error) {
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
		mlpOut := referenceTraceMLP(tr, cfg, ln1Out, s, h, ffn, tp)
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

	mlpOut := referenceTraceMLP(tr, cfg, ln2Out, s, h, ffn, tp)

	blockOut := full("block_out")
	tr.node(&Node{
		Name: "residual2", Kind: opdb.Elementwise,
		MPerSample: 2, N: s, K: h,
		Inputs: []*Tensor{res1, mlpOut}, Outputs: []*Tensor{blockOut},
	})
	return g, nil
}

// referenceTraceMLP traces the feed-forward path: mixture-of-experts (routed),
// gated (LLaMA), or plain.
func referenceTraceMLP(tr *tracer, cfg model.Config, in *Tensor, s, h, ffn, tp int) *Tensor {
	if cfg.IsMoE() {
		return referenceTraceMoEMLP(tr, cfg, in, s, h, ffn, tp)
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

// referenceTraceMoEMLP traces a routed mixture-of-experts MLP: router projection
// and softmax, token dispatch, per-expert up/act/down GEMMs at the
// capacity factor, and the combine. Per-device token counts assume
// expert parallelism over the data-parallel group with a balanced
// router; the expert GEMMs are traced in min(E, 8) fragments to expose
// the kernel-efficiency loss of splitting tokens across experts. The
// all-to-all exchanges are communication, priced by the schedule layer.
func referenceTraceMoEMLP(tr *tracer, cfg model.Config, in *Tensor, s, h, ffn, tp int) *Tensor {
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

// referenceTracePreLayer traces the embedding section (token + optional positional
// embedding). Vocab-parallel embedding shards the table across TP ranks.
func referenceTracePreLayer(cfg model.Config, seq, tp int) *Graph {
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

// referenceTracePostLayer traces the final norm, LM head projection and loss.
func referenceTracePostLayer(cfg model.Config, seq, tp int) *Graph {
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
