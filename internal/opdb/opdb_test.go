package opdb

import (
	"testing"
	"testing/quick"

	"repro/internal/hardware"
)

// TestLookupCaches: a lookup is a pure function of the GPU and the shape —
// one database asked twice, and two databases of one GPU, return equal
// costs — so the analyzer's memo of operator times is all the
// benchmark-once the database needs.
func TestLookupCaches(t *testing.T) {
	one, two := New(hardware.L4()), New(hardware.L4())
	for _, s := range []OpShape{
		{Kind: Matmul, M: 2048, N: 2048, K: 2048},
		{Kind: FlashAttn, M: 4, N: 2048, K: 2560},
		{Kind: LayerNorm, M: 8, N: 2048, K: 2560},
	} {
		c := one.Lookup(s)
		if again := one.Lookup(s); again != c {
			t.Errorf("%v: asked twice, %+v then %+v", s, c, again)
		}
		if other := two.Lookup(s); other != c {
			t.Errorf("%v: another database of the GPU says %+v, want %+v", s, other, c)
		}
	}
}

func TestMatmulComputeBound(t *testing.T) {
	db := New(hardware.A100())
	big := db.Lookup(OpShape{Kind: Matmul, M: 8192, N: 8192, K: 8192})
	// A large GEMM should achieve a decent fraction of peak.
	achieved := big.FLOPs / big.Time
	if frac := achieved / db.GPU().PeakFP16FLOPS; frac < 0.4 {
		t.Errorf("large GEMM achieves only %.2f of peak", frac)
	}
}

func TestSmallMatmulInefficient(t *testing.T) {
	db := New(hardware.L4())
	small := db.Lookup(OpShape{Kind: Matmul, M: 128, N: 512, K: 512})
	big := db.Lookup(OpShape{Kind: Matmul, M: 8192, N: 8192, K: 8192})
	effSmall := small.FLOPs / small.Time / db.GPU().PeakFP16FLOPS
	effBig := big.FLOPs / big.Time / db.GPU().PeakFP16FLOPS
	if effSmall >= effBig {
		t.Errorf("small GEMM efficiency %.3f should be below large GEMM %.3f", effSmall, effBig)
	}
}

func TestBandwidthBoundOps(t *testing.T) {
	db := New(hardware.A100())
	ln := db.Lookup(OpShape{Kind: LayerNorm, M: 8, N: 4096, K: 8192})
	// Bandwidth-bound: achieved bandwidth near peak, compute far below.
	bw := ln.Bytes / ln.Time
	if frac := bw / db.GPU().MemBandwidth; frac < 0.5 {
		t.Errorf("layernorm achieves only %.2f of memory bandwidth", frac)
	}
}

func TestFlashAttnFasterThanUnfused(t *testing.T) {
	// The fused kernel avoids materializing the score matrix; for long
	// sequences it must be faster despite identical FLOPs.
	db := New(hardware.L4())
	b, s, h := 4, 4096, 4096
	flash := db.Lookup(OpShape{Kind: FlashAttn, M: b, N: s, K: h})
	core := db.Lookup(OpShape{Kind: CoreAttn, M: b, N: s, K: h})
	softmax := db.Lookup(OpShape{Kind: Softmax, M: b * 32, N: s, K: s})
	if flash.Time >= core.Time+softmax.Time {
		t.Errorf("flash %.6f should beat unfused %.6f", flash.Time, core.Time+softmax.Time)
	}
	if flash.Bytes >= core.Bytes {
		t.Errorf("flash traffic %.0f should be below unfused %.0f", flash.Bytes, core.Bytes)
	}
}

func TestLaunchOverheadFloorsTinyOps(t *testing.T) {
	db := New(hardware.L4())
	tiny := db.Lookup(OpShape{Kind: Elementwise, M: 1, N: 1, K: 8})
	if tiny.Time < db.GPU().KernelLaunchOverhead {
		t.Errorf("tiny op %.2e faster than launch overhead %.2e", tiny.Time, db.GPU().KernelLaunchOverhead)
	}
}

func TestA100FasterThanL4(t *testing.T) {
	l4 := New(hardware.L4())
	a100 := New(hardware.A100())
	s := OpShape{Kind: Matmul, M: 4096, N: 4096, K: 4096}
	if a100.Lookup(s).Time >= l4.Lookup(s).Time {
		t.Error("A100 should beat L4 on a large GEMM")
	}
}

// Property: cost is positive and monotone in each GEMM extent.
func TestPropertyMatmulMonotone(t *testing.T) {
	db := New(hardware.L4())
	f := func(a, b uint8) bool {
		m1 := (int(a%32) + 1) * 256
		m2 := (int(b%32) + 1) * 256
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		c1 := db.Lookup(OpShape{Kind: Matmul, M: m1, N: 4096, K: 4096})
		c2 := db.Lookup(OpShape{Kind: Matmul, M: m2, N: 4096, K: 4096})
		return c1.Time > 0 && c1.Time <= c2.Time+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every op kind yields a strictly positive, finite time.
func TestPropertyAllKindsPositive(t *testing.T) {
	db := New(hardware.A100())
	kinds := []Kind{Matmul, FlashAttn, CoreAttn, Softmax, LayerNorm, Gelu, Elementwise, Embedding, CrossEntropy}
	f := func(a, b, c uint8, ki uint8) bool {
		k := kinds[int(ki)%len(kinds)]
		s := OpShape{Kind: k, M: int(a%64) + 1, N: int(b)*16 + 16, K: int(c)*16 + 16}
		cost := db.Lookup(s)
		return cost.Time > 0 && cost.Time < 1e6 && cost.Bytes >= 0 && cost.FLOPs >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentLookup(t *testing.T) {
	db := New(hardware.L4())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				db.Lookup(OpShape{Kind: Matmul, M: 256 * (i%8 + 1), N: 1024, K: 1024})
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
