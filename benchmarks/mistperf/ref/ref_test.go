package ref

import (
	"testing"
)

// TestSliceAllocatesNothing: a slice must not disturb the heap it sits
// next to.
func TestSliceAllocatesNothing(t *testing.T) {
	k := New(2)
	defer k.Close()
	k.Slice()
	if n := testing.AllocsPerRun(5, func() { k.Slice() }); n != 0 {
		t.Errorf("Slice allocates %v objects per run, want 0", n)
	}
}

// TestFixedWork: a slice is a fixed number of multiply-adds with a
// fixed result, whatever the box is doing.
func TestFixedWork(t *testing.T) {
	k := New(2)
	defer k.Close()
	if got, want := k.Ops(), 2*Sweeps*(BufBytes/8); got != want {
		t.Errorf("Ops() = %d, want %d", got, want)
	}
	run := func() float64 {
		buf := make([]float64, 64)
		for i := range buf {
			buf[i] = float64(i)
		}
		Sweep(buf, 100)
		s := 0.0
		for _, x := range buf {
			s += x
		}
		return s
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Errorf("Sweep is not deterministic: %v vs %v", a, b)
	}
}

// TestValuesStayBounded: the map is a contraction, so a long run cannot
// drift into infinities or denormals (which would change its speed).
func TestValuesStayBounded(t *testing.T) {
	buf := []float64{0, 1, 1e6}
	Sweep(buf, 1_000_000)
	for _, x := range buf {
		if !(x > 0.4 && x < 0.6) {
			t.Errorf("value %v did not converge to the fixed point 0.5", x)
		}
	}
}
