package hardware

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinkTimeFor(t *testing.T) {
	l := Link{Name: "test", Bandwidth: 1e9, Latency: 1e-6}
	if got := l.TimeFor(0); got != 0 {
		t.Errorf("zero bytes: got %v, want 0", got)
	}
	want := 1e-6 + 1.0 // 1e9 bytes at 1e9 B/s
	if got := l.TimeFor(1e9); math.Abs(got-want) > 1e-12 {
		t.Errorf("1 GB transfer: got %v, want %v", got, want)
	}
}

func TestClusterValidate(t *testing.T) {
	c := L4Cluster(1, 8)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}
	bad := *c
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-node cluster accepted")
	}
	bad = *c
	bad.GPU.MemoryBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-memory GPU accepted")
	}
	bad = *c
	bad.HostLink.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-bandwidth host link accepted")
	}
}

func TestAllReduceScaling(t *testing.T) {
	c := A100Cluster(1, 8)
	bytes := 1e9
	// All-reduce over 1 device is free.
	if got := c.AllReduceTime(bytes, 1); got != 0 {
		t.Errorf("n=1: got %v, want 0", got)
	}
	// Traffic factor 2(n-1)/n grows with n: t(8) > t(2).
	t2 := c.AllReduceTime(bytes, 2)
	t8 := c.AllReduceTime(bytes, 8)
	if t8 <= t2 {
		t.Errorf("all-reduce: t(8)=%v should exceed t(2)=%v", t8, t2)
	}
	// But is bounded by 2x the raw transfer time plus latencies.
	raw := bytes / c.IntraNode.Bandwidth
	if t8 >= 2*raw+16*c.IntraNode.Latency+1e-12 {
		t.Errorf("all-reduce t(8)=%v exceeds 2x raw bound %v", t8, 2*raw)
	}
}

func TestAllGatherVsAllReduce(t *testing.T) {
	c := L4Cluster(1, 4)
	bytes := 64e6
	ag := c.AllGatherTime(bytes, 4)
	ar := c.AllReduceTime(bytes, 4)
	// All-reduce moves twice the traffic of all-gather.
	if math.Abs(ar-2*ag) > 1e-9 {
		t.Errorf("all-reduce %v should be 2x all-gather %v", ar, ag)
	}
	if rs := c.ReduceScatterTime(bytes, 4); rs != ag {
		t.Errorf("reduce-scatter %v should equal all-gather %v", rs, ag)
	}
}

func TestCrossNodeCollectiveSlower(t *testing.T) {
	c := A100Cluster(4, 8)
	bytes := 256e6
	intra := c.AllReduceTime(bytes, 8)  // fits in one node
	inter := c.AllReduceTime(bytes, 16) // spans two nodes
	if inter <= intra {
		t.Errorf("cross-node all-reduce %v should exceed intra-node %v", inter, intra)
	}
}

func TestP2PLinkSelection(t *testing.T) {
	c := A100Cluster(2, 8)
	bytes := 16e6
	same := c.P2PTime(bytes, false)
	cross := c.P2PTime(bytes, true)
	if cross <= same {
		t.Errorf("cross-node p2p %v should exceed intra-node %v", cross, same)
	}
}

func TestPlatformAsymmetry(t *testing.T) {
	l4 := L4Cluster(1, 8)
	a100 := A100Cluster(1, 8)
	// The PCIe platform must have a much weaker intra-node fabric: this
	// asymmetry is what gives Mist larger wins on L4 (paper §6.2).
	if l4.IntraNode.Bandwidth*5 > a100.IntraNode.Bandwidth {
		t.Errorf("expected A100 NVLink >> L4 PCIe: %v vs %v",
			a100.IntraNode.Bandwidth, l4.IntraNode.Bandwidth)
	}
	if l4.GPU.MemoryBytes >= a100.GPU.MemoryBytes {
		t.Error("L4 should have less memory than A100")
	}
	if l4.MemoryBudget() >= float64(l4.GPU.MemoryBytes) {
		t.Error("memory budget must reserve framework overhead")
	}
}

// A node's host RAM is the platform's machine: 384 GB on GCP
// g2-standard-96 (8 L4s) and 1152 GiB on AWS p4d.24xlarge (8 A100s), and
// a smaller node keeps the per-GPU share.
func TestHostMemory(t *testing.T) {
	for _, c := range []struct {
		cl   *Cluster
		want float64
	}{
		{L4Cluster(1, 8), 384e9},
		{L4Cluster(1, 2), 96e9},
		{L4Cluster(4, 8), 384e9},
		{A100Cluster(1, 8), 1152 << 30},
		{A100Cluster(1, 4), 576 << 30},
	} {
		if got := c.cl.HostMemory(); got != c.want {
			t.Errorf("%s %dx%d: host memory %v bytes, want %v", c.cl.GPU.Name, c.cl.Nodes, c.cl.GPUsPerNode, got, c.want)
		}
	}
}

func TestMeshForGPUs(t *testing.T) {
	cases := []struct {
		total, nodes, perNode int
		wantErr               bool
	}{
		{2, 1, 2, false},
		{4, 1, 4, false},
		{8, 1, 8, false},
		{16, 2, 8, false},
		{32, 4, 8, false},
		{0, 0, 0, true},
		{12, 0, 0, true},
	}
	for _, c := range cases {
		n, m, err := MeshForGPUs(c.total)
		if c.wantErr {
			if err == nil {
				t.Errorf("MeshForGPUs(%d): expected error", c.total)
			}
			continue
		}
		if err != nil || n != c.nodes || m != c.perNode {
			t.Errorf("MeshForGPUs(%d) = (%d,%d,%v), want (%d,%d)", c.total, n, m, err, c.nodes, c.perNode)
		}
	}
}

// TestClusterByName checks the platform table against MeshForGPUs and
// the two constructors: any case resolves, an unknown name is an error,
// and a GPU count the mesh cannot hold returns MeshForGPUs's error.
func TestClusterByName(t *testing.T) {
	builds := map[string]struct {
		build func(nodes, gpusPerNode int) *Cluster
		seq   int
	}{
		"l4":   {L4Cluster, 2048},
		"a100": {A100Cluster, 4096},
	}
	for _, platform := range []string{"l4", "L4", "a100", "h100"} {
		for _, gpus := range []int{0, 2, 4, 8, 12, 16} {
			cl, seq, err := ClusterByName(platform, gpus)
			nodes, perNode, meshErr := MeshForGPUs(gpus)
			want, known := builds[strings.ToLower(platform)]
			switch {
			case meshErr != nil:
				if err == nil || err.Error() != meshErr.Error() {
					t.Errorf("ClusterByName(%q, %d) error %v, want MeshForGPUs's %v", platform, gpus, err, meshErr)
				}
			case !known:
				if err == nil || !strings.Contains(err.Error(), platform) {
					t.Errorf("ClusterByName(%q, %d) error %v, want one naming the platform", platform, gpus, err)
				}
			case err != nil:
				t.Errorf("ClusterByName(%q, %d): %v", platform, gpus, err)
			case !reflect.DeepEqual(cl, want.build(nodes, perNode)) || seq != want.seq:
				t.Errorf("ClusterByName(%q, %d) = %+v, seq %d; want the constructor's %dx%d mesh, seq %d",
					platform, gpus, cl, seq, nodes, perNode, want.seq)
			}
			if err != nil && cl != nil {
				t.Errorf("ClusterByName(%q, %d) returned a cluster with its error", platform, gpus)
			}
		}
	}
}

// Property: collective times are monotone in bytes.
func TestPropertyCollectiveMonotoneInBytes(t *testing.T) {
	c := L4Cluster(2, 8)
	f := func(a, b uint32, n8 uint8) bool {
		n := int(n8%16) + 2
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return c.AllReduceTime(x, n) <= c.AllReduceTime(y, n)+1e-12 &&
			c.AllGatherTime(x, n) <= c.AllGatherTime(y, n)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: collective times are non-negative.
func TestPropertyCollectiveNonNegative(t *testing.T) {
	c := A100Cluster(4, 8)
	f := func(b uint32, n8 uint8) bool {
		n := int(n8 % 40)
		bytes := float64(b)
		return c.AllReduceTime(bytes, n) >= 0 &&
			c.AllGatherTime(bytes, n) >= 0 &&
			c.ReduceScatterTime(bytes, n) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
