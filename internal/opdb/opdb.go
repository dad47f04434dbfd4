// Package opdb implements Mist's operator computation database (§5.2.1):
// runtime analysis cannot be done purely symbolically because GPU kernel
// behaviour is shape-dependent, so the paper benchmarks each operator on
// the target hardware and caches the result keyed by (operator, shape).
//
// Without physical GPUs (DESIGN.md "Substitution table"), the
// "benchmark" is a roofline kernel model: an operator costs
//
//	max(flops / (peakFLOPs * eff(shape)), bytes / memBandwidth) + launch
//
// where eff(shape) is a saturating efficiency curve in the GEMM's
// parallelism-exposing extent (small matmuls cannot fill the SMs). A
// lookup evaluates that closed form, a pure function of the shape, so the
// database keeps no cache of its own: the paper's benchmark-once is the
// analyzer's memo of section times per (TP, microbatch size)
// (schedule.Analyzer), which looks each operator up once per analyzer.
package opdb

import (
	"fmt"
	"math"

	"repro/internal/hardware"
)

// Kind enumerates the operator classes that appear in a transformer block.
type Kind uint8

// Operator classes.
const (
	Matmul       Kind = iota // dense GEMM: (m×k)·(k×n)
	FlashAttn                // fused attention (IO-aware, compute-bound)
	CoreAttn                 // unfused attention score+context matmuls
	Softmax                  // bandwidth-bound
	LayerNorm                // bandwidth-bound (covers RMSNorm)
	Gelu                     // bandwidth-bound elementwise (covers SiLU/gated act)
	Elementwise              // residual adds, casts, masks
	Embedding                // gather
	CrossEntropy             // loss + log-softmax over vocab
)

func (k Kind) String() string {
	switch k {
	case Matmul:
		return "matmul"
	case FlashAttn:
		return "flash_attn"
	case CoreAttn:
		return "core_attn"
	case Softmax:
		return "softmax"
	case LayerNorm:
		return "layernorm"
	case Gelu:
		return "gelu"
	case Elementwise:
		return "elementwise"
	case Embedding:
		return "embedding"
	case CrossEntropy:
		return "cross_entropy"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OpShape identifies one operator instance. The meaning of M, N, K depends
// on the kind: for Matmul they are the GEMM dims; for attention M=batch,
// N=seq, K=hidden (per device); for bandwidth-bound ops M*N*K is the
// element count.
type OpShape struct {
	Kind    Kind
	M, N, K int
}

// Cost is the modelled execution profile of one operator instance.
type Cost struct {
	Time  float64 // seconds
	FLOPs float64 // dense compute performed
	Bytes float64 // device memory traffic
}

// DB is a per-GPU operator latency database. It is immutable and safe for
// concurrent use.
type DB struct {
	gpu hardware.GPU
}

// New builds an operator database for the given GPU.
func New(gpu hardware.GPU) *DB {
	return &DB{gpu: gpu}
}

// GPU returns the device this database models.
func (db *DB) GPU() hardware.GPU { return db.gpu }

// Lookup returns the cost of the operator, benchmarked (modelled) on the
// database's GPU: the same shape always costs the same.
func (db *DB) Lookup(s OpShape) Cost { return db.bench(s) }

const fp16 = 2 // bytes per element

// bench models one operator with the roofline.
func (db *DB) bench(s OpShape) Cost {
	switch s.Kind {
	case Matmul:
		flops := 2 * float64(s.M) * float64(s.N) * float64(s.K)
		bytes := fp16 * (float64(s.M)*float64(s.K) + float64(s.K)*float64(s.N) + float64(s.M)*float64(s.N))
		eff := db.gpu.MatmulEfficiency * gemmEfficiency(s.M, s.N, s.K)
		return db.roofline(flops, bytes, eff)
	case FlashAttn:
		// b=M sequences of length N at hidden K (per device). Exact
		// attention FLOPs; IO-aware kernels avoid materializing the
		// s x s score matrix, so traffic is O(b*s*h).
		flops := 4 * float64(s.M) * float64(s.N) * float64(s.N) * float64(s.K)
		bytes := fp16 * 4 * float64(s.M) * float64(s.N) * float64(s.K)
		eff := db.gpu.MatmulEfficiency * 0.75 * gemmEfficiency(s.M*s.N, s.K, s.N)
		return db.roofline(flops, bytes, eff)
	case CoreAttn:
		// Unfused path: same FLOPs but materializes scores (b*a*s*s),
		// costed as traffic; plus the softmax below is charged separately
		// by the tracer.
		flops := 4 * float64(s.M) * float64(s.N) * float64(s.N) * float64(s.K)
		scoreElems := float64(s.M) * float64(s.N) * float64(s.N)
		bytes := fp16 * (4*float64(s.M)*float64(s.N)*float64(s.K) + 3*scoreElems)
		eff := db.gpu.MatmulEfficiency * 0.6 * gemmEfficiency(s.M*s.N, s.N, s.K)
		return db.roofline(flops, bytes, eff)
	case Softmax:
		elems := float64(s.M) * float64(s.N) * float64(s.K)
		return db.roofline(5*elems, 3*fp16*elems, 1)
	case LayerNorm:
		elems := float64(s.M) * float64(s.N) * float64(s.K)
		return db.roofline(8*elems, 2*fp16*elems, 1)
	case Gelu:
		elems := float64(s.M) * float64(s.N) * float64(s.K)
		return db.roofline(10*elems, 2*fp16*elems, 1)
	case Elementwise:
		elems := float64(s.M) * float64(s.N) * float64(s.K)
		return db.roofline(elems, 3*fp16*elems, 1)
	case Embedding:
		elems := float64(s.M) * float64(s.N) * float64(s.K) // tokens x hidden
		return db.roofline(0, 2*fp16*elems, 1)
	case CrossEntropy:
		elems := float64(s.M) * float64(s.N) * float64(s.K) // tokens x vocab
		return db.roofline(6*elems, 2*fp16*elems+4*float64(s.M)*float64(s.N), 1)
	default:
		panic(fmt.Sprintf("opdb: unknown op kind %v", s.Kind))
	}
}

// roofline combines compute-bound and bandwidth-bound regimes.
func (db *DB) roofline(flops, bytes, eff float64) Cost {
	computeTime := 0.0
	if flops > 0 {
		computeTime = flops / (db.gpu.PeakFP16FLOPS * math.Max(eff, 1e-3))
	}
	memTime := bytes / db.gpu.MemBandwidth
	return Cost{
		Time:  math.Max(computeTime, memTime) + db.gpu.KernelLaunchOverhead,
		FLOPs: flops,
		Bytes: bytes,
	}
}

// gemmEfficiency is a saturating curve in the GEMM extents: kernels reach
// peak efficiency only when m, n and k are large enough to fill the SMs
// and amortize the epilogue. This reproduces the paper's observation that
// increasing the microbatch size improves kernel efficiency (§1, §3.1).
func gemmEfficiency(m, n, k int) float64 {
	// Characteristic scales; below them utilization degrades smoothly.
	const (
		mnScale = 4096.0
		kScale  = 1024.0
	)
	mn := math.Sqrt(float64(m) * float64(n))
	effMN := mn / (mn + mnScale)
	effK := float64(k) / (float64(k) + kScale)
	// Normalize so large shapes approach 1.
	e := (effMN / (32768 / (32768 + mnScale))) * (effK / (8192 / (8192 + kScale)))
	return math.Min(1, math.Max(0.02, e))
}
