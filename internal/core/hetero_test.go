package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/hardware"
	"repro/internal/trainsim"
)

// Heterogeneous per-stage device assignment (the (n_i, m_i) variables of
// Table 2) must never lose to the uniform split — its candidate space is
// a strict superset — and its plans must still validate and execute.

func TestHeteroAtLeastAsGoodAsUniform(t *testing.T) {
	w := testWorkload("gpt3-2.7b", 8)
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)

	uniform, err := New(w, cl, DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	ru, err := uniform.Tune()
	if err != nil {
		t.Fatal(err)
	}

	heteroSpace := DeepSpeedSpace()
	heteroSpace.HeterogeneousDevices = true
	hetero := &Tuner{W: w, Cluster: cl, An: uniform.An, Space: heteroSpace}
	rh, err := hetero.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if rh.Predicted > ru.Predicted+1e-9 {
		t.Errorf("heterogeneous %v worse than uniform %v", rh.Predicted, ru.Predicted)
	}
	if err := rh.Plan.Validate(w); err != nil {
		t.Fatalf("hetero plan invalid: %v", err)
	}
	// Device totals must tile the cluster exactly.
	devices := 0
	for _, st := range rh.Plan.Stages {
		devices += st.Shape.Devices()
	}
	if devices != cl.TotalGPUs() {
		t.Errorf("hetero plan uses %d devices of %d", devices, cl.TotalGPUs())
	}
	// And the plan must execute.
	m, err := trainsim.New(w, cl, uniform.An).Measure(rh.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.OOM(cl.MemoryBudget()) {
		t.Error("hetero plan OOMs")
	}
}

func TestHeteroDPDeviceConstraint(t *testing.T) {
	// Hand-built instance where a uniform split is impossible: 3 stages
	// on 4 devices. The device-aware DP must find 2+1+1.
	w := testWorkload("gpt3-1.3b", 8) // 24 layers
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	space := ThreeDSpace()
	space.HeterogeneousDevices = true
	tn, err := New(w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := tn.tuneSG(context.Background(), 3, 4, math.Inf(1)) // no solution known yet
	if err != nil {
		t.Fatalf("S=3 G=4: %v", err)
	}
	var devs []int
	layers := 0
	for _, c := range sol.Stages {
		devs = append(devs, c.Shape.Devices())
		layers += c.Knobs.Layers
	}
	sort.Ints(devs)
	if !reflect.DeepEqual(devs, []int{1, 1, 2}) {
		t.Errorf("per-stage devices %v, want a 2+1+1 split of the 4 GPUs", devs)
	}
	if layers != 24 {
		t.Errorf("layer sum %d, want 24", layers)
	}
}

func TestDeviceOptions(t *testing.T) {
	nodes, perNode, _ := hardware.MeshForGPUs(8)
	cl := hardware.L4Cluster(nodes, perNode)
	tn := &Tuner{W: testWorkload("gpt3-1.3b", 8), Cluster: cl}
	got := tn.deviceOptions(2)
	// Powers of two leaving >= 1 device for the other stage: 1, 2, 4.
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("deviceOptions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deviceOptions = %v, want %v", got, want)
		}
	}
}

// TestHeteroBenchCellWork pins what a heterogeneous-device search of the
// bench cell prices, and why. Of its 32 (S, G) pairs the compute floor
// skips 27; swept are (S=1, G=1), which the wave ramp runs alone and whose
// 1.477 s is under the floor of the other three S=1 pairs (13 shapes of
// one layer count: 5 265 points), and the four pairs with S in {4, 5} and
// G in {4, 8}, whose per-stage device options {1, 2, 4} admit the widest
// tensor parallelism a pipelined stage can get: 11 shapes at G=4 and 3 at
// G=8, times five layer counts of 405 knobs, times S stages — 89 100 +
// 24 300 + 111 375 + 30 375. That is 260 415 candidates.
//
// One canonical shape meets overlapping layer windows there (the same
// mesh under different pipeline depths), and rows keyed per (shape, knob
// set) serve every layer count the windows share: S=5's stages have the
// in-flight depths 4, 4, 3, 2, 1 at G=4, so four of them are S=4's stages
// (4, 3, 2, 1) with the window 5-9 against 6-10 and miss one layer count
// of five (4 x 11 x 405), the fifth misses all (22 275); at G=8 the
// depths 5, 4, 3, 2, 1 leave two stages new (2 x 6 075) and three missing
// one layer count (3 x 3 x 405). Unique evaluations: 5 265 + 89 100 +
// 24 300 + 40 095 + 15 795 = 174 555; a row keyed by the whole window
// would re-price all 260 415. GOMAXPROCS is 1 so that no two pairs of a
// wave miss the same row at once — both would count it.
func TestHeteroBenchCellWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	space := MistSpace()
	space.HeterogeneousDevices = true
	tn, err := New(testWorkload("gpt3-2.7b", 8), l4(t, 8), space)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if r.Candidates != 260415 || r.EvalCacheMisses != 174555 || r.FloorSkippedPairs != 27 {
		t.Errorf("hetero search priced %d candidates with %d unique evaluations and skipped %d pairs, want 260415, 174555 and 27",
			r.Candidates, r.EvalCacheMisses, r.FloorSkippedPairs)
	}
	if got := r.EvalCacheHits + r.EvalCacheMisses; got != uint64(r.Candidates) {
		t.Errorf("hits+misses = %d, want the %d candidates priced", got, r.Candidates)
	}
}
