// Package model defines the transformer families and sizes used in the
// paper's evaluation (Table 4): GPT-3 (standard decoder blocks), LLaMA-2
// (pre-RMSNorm, gated SwiGLU MLP, rotary embeddings) and Falcon (parallel
// attention + MLP, which halves the tensor-parallel all-reduce count per
// layer). Dropout is zero and linear biases are disabled, following the
// paper's methodology (§6.1).
//
// A Config carries architectural hyper-parameters only; sequence length,
// batch sizes and FlashAttention on/off are workload properties supplied
// by the caller.
package model

import (
	"fmt"
	"sort"
)

// Family enumerates the supported transformer architectures.
type Family int

// Supported model families.
const (
	GPT3 Family = iota
	Llama
	Falcon
)

func (f Family) String() string {
	switch f {
	case GPT3:
		return "gpt3"
	case Llama:
		return "llama"
	case Falcon:
		return "falcon"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// Config describes one transformer model.
type Config struct {
	Name      string
	Family    Family
	Layers    int // number of transformer blocks
	Hidden    int // model dimension h
	Heads     int // attention heads a
	FFNHidden int // MLP intermediate dimension (per expert for MoE)
	Vocab     int // vocabulary size V
	MaxSeq    int // maximum (learned) positional extent; 0 for rotary

	// Mixture-of-Experts extension (see moe.go): NumExperts > 0 replaces
	// the MLP with NumExperts experts, TopK active per token.
	NumExperts int
	TopK       int
}

// Validate checks structural invariants.
func (c *Config) Validate() error {
	if c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.FFNHidden <= 0 || c.Vocab <= 0 {
		return fmt.Errorf("model %q: non-positive dimension", c.Name)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("model %q: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c *Config) HeadDim() int { return c.Hidden / c.Heads }

// TPAllReducesPerLayer returns the number of activation all-reduces per
// layer per pass under tensor parallelism. Falcon's parallel attention+MLP
// design needs one; GPT-3 and LLaMA need two (one after attention, one
// after the MLP), as described in §6.1.
func (c *Config) TPAllReducesPerLayer() int {
	if c.Family == Falcon {
		return 1
	}
	return 2
}

// UsesGatedMLP reports whether the MLP has a third (gate) projection,
// which adds a matmul and an extra activation tensor.
func (c *Config) UsesGatedMLP() bool { return c.Family == Llama }

// ParamsPerLayer returns the parameter count of one transformer block
// (for MoE, the dense part plus all experts).
func (c *Config) ParamsPerLayer() int64 {
	return c.DenseParamsPerLayer() + c.ExpertParamsPerLayer()
}

// EmbeddingParams returns input embedding (+ learned positional) params.
// The LM head is tied to the input embedding, following common practice.
func (c *Config) EmbeddingParams() int64 {
	p := int64(c.Vocab) * int64(c.Hidden)
	if c.MaxSeq > 0 {
		p += int64(c.MaxSeq) * int64(c.Hidden)
	}
	return p
}

// TotalParams returns the full model parameter count.
func (c *Config) TotalParams() int64 {
	return int64(c.Layers)*c.ParamsPerLayer() + c.EmbeddingParams() + int64(c.Hidden)
}

// LayerFwdFLOPs returns the dense-compute FLOPs of one block's forward
// pass for a microbatch of b sequences of length s (matmul terms only;
// the bandwidth-bound ops are costed separately by the operator database).
func (c *Config) LayerFwdFLOPs(b, s int) float64 {
	bs := float64(b) * float64(s)
	h := float64(c.Hidden)
	ffn := float64(c.FFNHidden)
	attnProj := 8 * bs * h * h          // QKV (6bsh^2) + out (2bsh^2)
	attnCore := 4 * bs * float64(s) * h // QK^T + AV
	var mlp float64
	switch {
	case c.IsMoE():
		// Router projection plus TopK expert MLPs at the capacity factor.
		router := 2 * bs * h * float64(c.NumExperts)
		mlp = router + CapacityFactor*float64(c.TopK)*4*bs*h*ffn
	case c.UsesGatedMLP():
		mlp = 6 * bs * h * ffn
	default:
		mlp = 4 * bs * h * ffn
	}
	return attnProj + attnCore + mlp
}

// gptConfig builds a GPT-3-style size.
func gptConfig(name string, layers, hidden, heads int) Config {
	return Config{
		Name: name, Family: GPT3,
		Layers: layers, Hidden: hidden, Heads: heads,
		FFNHidden: 4 * hidden, Vocab: 50304, MaxSeq: 4096,
	}
}

// llamaConfig builds a LLaMA-2-style size; FFN = 8/3 h rounded up to a
// multiple of 256 as in the released models.
func llamaConfig(name string, layers, hidden, heads int) Config {
	ffn := (hidden*8/3 + 255) / 256 * 256
	return Config{
		Name: name, Family: Llama,
		Layers: layers, Hidden: hidden, Heads: heads,
		FFNHidden: ffn, Vocab: 32000, MaxSeq: 0,
	}
}

// falconConfig builds a Falcon-style size (parallel attention, 4h MLP).
func falconConfig(name string, layers, hidden, heads int) Config {
	return Config{
		Name: name, Family: Falcon,
		Layers: layers, Hidden: hidden, Heads: heads,
		FFNHidden: 4 * hidden, Vocab: 65024, MaxSeq: 0,
	}
}

// catalog holds the named sizes of Table 4. Dimension choices follow the
// published model cards (GPT-3 appendix; LLaMA-2; Falcon) with the paper's
// labels (1.3, 2.6/2.7, 6.7/7, 13, 22 billion parameters).
var catalog = map[string]Config{
	"gpt3-1.3b":   gptConfig("gpt3-1.3b", 24, 2048, 16),
	"gpt3-2.7b":   gptConfig("gpt3-2.7b", 32, 2560, 32),
	"gpt3-7b":     gptConfig("gpt3-7b", 32, 4096, 32),
	"gpt3-13b":    gptConfig("gpt3-13b", 40, 5120, 40),
	"gpt3-22b":    gptConfig("gpt3-22b", 48, 6144, 64),
	"gpt3-40b":    gptConfig("gpt3-40b", 48, 8192, 64),
	"llama-1.3b":  llamaConfig("llama-1.3b", 24, 2048, 16),
	"llama-2.7b":  llamaConfig("llama-2.7b", 32, 2560, 32),
	"llama-7b":    llamaConfig("llama-7b", 32, 4096, 32),
	"llama-13b":   llamaConfig("llama-13b", 40, 5120, 40),
	"llama-22b":   llamaConfig("llama-22b", 48, 6144, 64),
	"falcon-1.3b": falconConfig("falcon-1.3b", 24, 2048, 16),
	"falcon-2.7b": falconConfig("falcon-2.7b", 32, 2560, 32),
	"falcon-7b":   falconConfig("falcon-7b", 32, 4096, 32),
	"falcon-13b":  falconConfig("falcon-13b", 40, 5120, 40),
	"falcon-22b":  falconConfig("falcon-22b", 48, 6144, 64),
}

// ByName returns the named model config from the Table 4 catalog.
func ByName(name string) (Config, error) {
	c, ok := catalog[name]
	if !ok {
		return Config{}, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
	return c, nil
}

// MustByName is ByName that panics on unknown names.
func MustByName(name string) Config {
	c, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names lists the catalog models in sorted order.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for n := range catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WithLayers returns a copy of c with a different layer count, used by the
// layer-count sensitivity study (Figure 14).
func (c Config) WithLayers(layers int) Config {
	c.Layers = layers
	c.Name = fmt.Sprintf("%s-L%d", c.Name, layers)
	return c
}
