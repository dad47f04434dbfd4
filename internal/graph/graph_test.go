package graph

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/symbolic"
)

func evalAt(e *symbolic.Expr, b float64) float64 {
	return e.MustEval(symbolic.Env{BSymbol: b})
}

func mustTrace(t *testing.T, name string, seq, tp int, flash bool) *Graph {
	t.Helper()
	g, err := TraceLayer(model.MustByName(name), seq, tp, flash)
	if err != nil {
		t.Fatalf("trace %s: %v", name, err)
	}
	return g
}

// mustSections traces cfg's sections (the embedding and head do not
// depend on FlashAttention).
func mustSections(t *testing.T, cfg model.Config, seq int) *Sections {
	t.Helper()
	secs, err := Trace(cfg, seq, true)
	if err != nil {
		t.Fatalf("trace %s: %v", cfg.Name, err)
	}
	return secs
}

func TestTraceRejectsBadTP(t *testing.T) {
	if _, err := TraceLayer(model.MustByName("gpt3-7b"), 2048, 3, true); err == nil {
		t.Fatal("tp=3 should not divide 32 heads")
	}
	if _, err := TraceLayer(model.MustByName("gpt3-7b"), 2048, 0, true); err == nil {
		t.Fatal("tp=0 must be rejected")
	}
}

// TestSavedActivationCoefficient checks the traced stash against the
// Megatron-style accounting: with FlashAttention and tp=1 a GPT block
// stashes about 34*s*h bytes per sample (8 full-width tensors + 26/tp).
func TestSavedActivationCoefficient(t *testing.T) {
	cfg := model.MustByName("gpt3-7b")
	seq := 2048
	g := mustTrace(t, "gpt3-7b", seq, 1, true)
	perSample := evalAt(g.SavedActivationBytes(), 1)
	sh := float64(seq) * float64(cfg.Hidden)
	coeff := perSample / sh
	if coeff < 30 || coeff > 38 {
		t.Errorf("saved activation coefficient %.1f*s*h, want ~34", coeff)
	}
}

func TestSavedActivationsShrinkWithTP(t *testing.T) {
	g1 := mustTrace(t, "gpt3-7b", 2048, 1, true)
	g8 := mustTrace(t, "gpt3-7b", 2048, 8, true)
	s1 := evalAt(g1.SavedActivationBytes(), 4)
	s8 := evalAt(g8.SavedActivationBytes(), 4)
	if s8 >= s1 {
		t.Errorf("tp=8 stash %.0f should be below tp=1 stash %.0f", s8, s1)
	}
	// But not by the full 8x: norm inputs/outputs stay full-width.
	if s8 < s1/8 {
		t.Errorf("tp=8 stash %.0f below s1/8=%.0f: full-width terms missing", s8, s1/8)
	}
}

func TestFlashAttentionRemovesQuadraticStash(t *testing.T) {
	// Without FlashAttention the stash includes the b*a*s^2 softmax
	// output; at seq 4096 that dominates.
	flash := mustTrace(t, "gpt3-7b", 4096, 1, true)
	unfused := mustTrace(t, "gpt3-7b", 4096, 1, false)
	sf := evalAt(flash.SavedActivationBytes(), 1)
	su := evalAt(unfused.SavedActivationBytes(), 1)
	if su <= sf*1.5 {
		t.Errorf("unfused stash %.2e should far exceed flash stash %.2e at seq 4096", su, sf)
	}
}

func TestBoundaryBytes(t *testing.T) {
	cfg := model.MustByName("gpt3-7b")
	g := mustTrace(t, "gpt3-7b", 2048, 2, true)
	want := 2.0 * 2048 * float64(cfg.Hidden) // fp16 * s * h per sample
	if got := evalAt(g.BoundaryBytes(), 1); math.Abs(got-want) > 1 {
		t.Errorf("boundary bytes %.0f, want %.0f", got, want)
	}
}

func TestPeakForwardAtLeastSaved(t *testing.T) {
	for _, flash := range []bool{true, false} {
		g := mustTrace(t, "llama-7b", 2048, 2, flash)
		for _, b := range []float64{1, 2, 4, 8} {
			peak := evalAt(g.PeakForwardBytes(), b)
			saved := evalAt(g.SavedActivationBytes(), b)
			if peak < saved {
				t.Errorf("flash=%v b=%v: fwd peak %.0f below stash %.0f", flash, b, peak, saved)
			}
		}
	}
}

func TestPeakBackwardExceedsForward(t *testing.T) {
	// Backward holds the stash plus activation gradients, so its peak
	// must exceed the forward peak.
	g := mustTrace(t, "gpt3-7b", 2048, 1, true)
	fwd := evalAt(g.PeakForwardBytes(), 4)
	bwd := evalAt(g.PeakBackwardBytes(), 4)
	if bwd <= fwd {
		t.Errorf("bwd peak %.0f should exceed fwd peak %.0f", bwd, fwd)
	}
}

func TestMemoryLinearInBatch(t *testing.T) {
	g := mustTrace(t, "falcon-7b", 2048, 2, true)
	exprs := []*symbolic.Expr{
		g.SavedActivationBytes(), g.PeakForwardBytes(), g.PeakBackwardBytes(),
	}
	for i, e := range exprs {
		v1, v2 := evalAt(e, 3), evalAt(e, 6)
		if math.Abs(v2-2*v1) > 1e-6*v2 {
			t.Errorf("expr %d not linear in b: f(3)=%v f(6)=%v", i, v1, v2)
		}
	}
}

func TestForwardBackwardTimes(t *testing.T) {
	db := opdb.New(hardware.L4())
	g := mustTrace(t, "gpt3-2.7b", 2048, 1, true)
	fwd := g.ForwardTime(db, 2)
	bwd := g.BackwardTime(db, 2)
	if fwd <= 0 || bwd <= 0 {
		t.Fatalf("non-positive times: fwd=%v bwd=%v", fwd, bwd)
	}
	// Backward does ~2x the matmul work of forward.
	if ratio := bwd / fwd; ratio < 1.3 || ratio > 3.5 {
		t.Errorf("bwd/fwd ratio %.2f outside [1.3, 3.5]", ratio)
	}
}

func TestForwardTimeMatchesModelFLOPs(t *testing.T) {
	// The traced matmul FLOPs must match the closed-form layer estimate.
	db := opdb.New(hardware.A100())
	cfg := model.MustByName("gpt3-7b")
	g := mustTrace(t, "gpt3-7b", 2048, 1, true)
	b := 4
	var traced float64
	for _, n := range g.Nodes {
		c := db.Lookup(n.op().shapeAt(b))
		traced += c.FLOPs * n.Repeat
	}
	want := cfg.LayerFwdFLOPs(b, 2048)
	if math.Abs(traced-want)/want > 0.05 {
		t.Errorf("traced FLOPs %.3e vs closed-form %.3e (>5%% off)", traced, want)
	}
}

func TestTPSpeedsUpForward(t *testing.T) {
	db := opdb.New(hardware.L4())
	g1 := mustTrace(t, "gpt3-7b", 2048, 1, true)
	g4 := mustTrace(t, "gpt3-7b", 2048, 4, true)
	t1 := g1.ForwardTime(db, 4)
	t4 := g4.ForwardTime(db, 4)
	if t4 >= t1 {
		t.Errorf("tp=4 fwd %.5f should beat tp=1 fwd %.5f", t4, t1)
	}
}

func TestPrePostLayers(t *testing.T) {
	db := opdb.New(hardware.L4())
	secs := mustSections(t, model.MustByName("gpt3-7b"), 2048)
	pre, post := secs.Pre.Bind(1), secs.Post.Bind(1)
	if pre.NumOps() == 0 || post.NumOps() == 0 {
		t.Fatal("empty pre/post trace")
	}
	if pre.ForwardTime(db, 2) <= 0 || post.ForwardTime(db, 2) <= 0 {
		t.Error("non-positive pre/post forward time")
	}
	// The LM head is far more expensive than the embedding gather.
	if post.ForwardTime(db, 2) <= pre.ForwardTime(db, 2) {
		t.Error("post layer (LM head) should dominate pre layer")
	}
	if evalAt(post.SavedActivationBytes(), 1) <= 0 {
		t.Error("post layer should stash logits and ln input")
	}
}

func TestFamiliesTraceDistinctly(t *testing.T) {
	db := opdb.New(hardware.L4())
	llama := mustTrace(t, "llama-7b", 2048, 1, true)
	gpt := mustTrace(t, "gpt3-7b", 2048, 1, true)
	falcon := mustTrace(t, "falcon-7b", 2048, 1, true)
	// LLaMA's gated MLP adds a matmul compared to GPT.
	if llama.NumOps() <= gpt.NumOps() {
		t.Errorf("llama ops %d should exceed gpt ops %d (gate proj)", llama.NumOps(), gpt.NumOps())
	}
	// Falcon merges the residual path (one residual node, no ln2).
	if falcon.NumOps() >= gpt.NumOps() {
		t.Errorf("falcon ops %d should be below gpt ops %d (parallel block)", falcon.NumOps(), gpt.NumOps())
	}
	for _, g := range []*Graph{llama, gpt, falcon} {
		if g.ForwardTime(db, 2) <= 0 {
			t.Errorf("%s: non-positive forward time", g.Name)
		}
	}
}

// Property: peak memory expressions are monotone in b for every family,
// TP degree and flash setting.
func TestPropertyPeakMonotoneInBatch(t *testing.T) {
	names := []string{"gpt3-2.7b", "llama-2.7b", "falcon-2.7b"}
	tps := []int{1, 2, 4}
	f := func(ni, ti uint8, flash bool, b1, b2 uint8) bool {
		g, err := TraceLayer(model.MustByName(names[int(ni)%len(names)]), 1024, tps[int(ti)%len(tps)], flash)
		if err != nil {
			return false
		}
		x, y := float64(b1%16)+1, float64(b2%16)+1
		if x > y {
			x, y = y, x
		}
		return evalAt(g.PeakForwardBytes(), x) <= evalAt(g.PeakForwardBytes(), y)+1e-9 &&
			evalAt(g.PeakBackwardBytes(), x) <= evalAt(g.PeakBackwardBytes(), y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: all memory expressions depend only on the symbol b.
func TestPropertyFreeVarsOnlyB(t *testing.T) {
	g := mustTrace(t, "gpt3-7b", 2048, 4, false)
	for _, e := range []*symbolic.Expr{g.SavedActivationBytes(), g.PeakForwardBytes(), g.PeakBackwardBytes()} {
		fv := e.FreeVars()
		if len(fv) > 1 || (len(fv) == 1 && fv[0] != BSymbol) {
			t.Errorf("unexpected free vars %v", fv)
		}
	}
}

// The peak expressions are a pure function of the graph: their sums run
// in trace order, never in map order. Two traces of one layer must render
// identically, and so must repeated analyses of a graph whose tensor
// sizes are distinct symbols (no like terms to merge, so the rendering
// shows the term order itself).
func TestPeakExpressionsDeterministic(t *testing.T) {
	for _, name := range []string{"gpt3-7b", "llama-7b", "falcon-7b"} {
		for _, flash := range []bool{false, true} {
			a, b := mustTrace(t, name, 2048, 2, flash), mustTrace(t, name, 2048, 2, flash)
			if x, y := a.PeakForwardBytes().String(), b.PeakForwardBytes().String(); x != y {
				t.Errorf("%s flash=%v: forward peak differs between traces:\n%s\n%s", name, flash, x, y)
			}
			if x, y := a.PeakBackwardBytes().String(), b.PeakBackwardBytes().String(); x != y {
				t.Errorf("%s flash=%v: backward peak differs between traces:\n%s\n%s", name, flash, x, y)
			}
		}
	}

	tensor := func(name string) *Tensor { return &Tensor{Name: name, Size: symbolic.Var(name)} }
	g := &Graph{Name: "chain", Input: tensor("t0")}
	prev := g.Input
	for i := 1; i <= 8; i++ {
		out := tensor(fmt.Sprintf("t%d", i))
		g.Nodes = append(g.Nodes, &Node{
			Name: out.Name, Repeat: 1,
			Inputs: []*Tensor{prev}, Outputs: []*Tensor{out}, Saved: []*Tensor{prev},
		})
		prev = out
	}
	fwd, bwd := g.PeakForwardBytes().String(), g.PeakBackwardBytes().String()
	for i := 0; i < 20; i++ {
		if got := g.PeakForwardBytes().String(); got != fwd {
			t.Fatalf("forward peak changed between calls:\n%s\n%s", fwd, got)
		}
		if got := g.PeakBackwardBytes().String(); got != bwd {
			t.Fatalf("backward peak changed between calls:\n%s\n%s", bwd, got)
		}
	}
}

// A graph's Ops price exactly as the graph does, at every microbatch
// size. The graphs are bound, so their ops hold no TP-split dimension
// and are priced at degree 1.
func TestOpsMatchGraph(t *testing.T) {
	db := opdb.New(hardware.L4())
	var graphs []*Graph
	for _, name := range []string{"gpt3-2.7b", "llama-7b", "falcon-1.3b"} {
		for _, flash := range []bool{false, true} {
			graphs = append(graphs, mustTrace(t, name, 2048, 2, flash))
		}
		secs := mustSections(t, model.MustByName(name), 2048)
		graphs = append(graphs, secs.Pre.Bind(2), secs.Post.Bind(2))
	}
	moe, err := TraceLayer(model.MustMoEByName("gpt3-1.3b", 8, 2), 2048, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, moe)
	for _, g := range graphs {
		ops := g.Ops()
		for b := 1; b <= 9; b++ {
			if got, want := ops.ForwardTime(db, 1, b), g.ForwardTime(db, b); got != want {
				t.Errorf("%s b=%d: forward time %v, graph says %v", g.Name, b, got, want)
			}
			if got, want := ops.BackwardTime(db, 1, b), g.BackwardTime(db, b); got != want {
				t.Errorf("%s b=%d: backward time %v, graph says %v", g.Name, b, got, want)
			}
		}
	}
}
