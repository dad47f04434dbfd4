// Package hardware models the GPU clusters Mist is evaluated on: per-GPU
// compute and memory characteristics, intra-node (PCIe / NVLink) and
// inter-node (Ethernet / InfiniBand) links, and analytic cost models for
// the collectives used by distributed training (ring all-reduce,
// all-gather, reduce-scatter, point-to-point).
//
// The paper runs on GCP machines with 8x NVIDIA L4 (24 GB, PCIe Gen3 x16,
// 100 Gbps network) and AWS p4d machines with 8x NVIDIA A100-40GB (NVLink,
// PCIe Gen4 x16, 400 Gbps network); see Table 3. Those two platforms are
// encoded here as constructors. Since this reproduction has no physical
// GPUs, these models are the ground truth the rest of the system is
// calibrated against (DESIGN.md "Substitution table").
package hardware

import (
	"fmt"
	"strings"
)

// GPU describes a single accelerator.
type GPU struct {
	Name string

	// MemoryBytes is the usable HBM/GDDR capacity. A fraction is reserved
	// for framework overhead by the memory planner, not here.
	MemoryBytes int64

	// PeakFP16FLOPS is the peak half-precision tensor throughput in FLOP/s.
	PeakFP16FLOPS float64

	// MemBandwidth is the device memory bandwidth in bytes/s; bandwidth-
	// bound kernels (norms, elementwise, softmax) are costed against it.
	MemBandwidth float64

	// KernelLaunchOverhead is the fixed per-kernel cost in seconds. It
	// dominates tiny shapes and is what makes small microbatches
	// inefficient (the "kernel efficiency" effect in the paper §1).
	KernelLaunchOverhead float64

	// MatmulEfficiency is the fraction of peak FLOPs achieved by large,
	// well-shaped GEMMs. Small GEMMs are degraded further by the opdb
	// efficiency curve.
	MatmulEfficiency float64
}

// Link is a shared communication channel with a simple alpha-beta cost
// model: transferring n bytes costs Latency + n/Bandwidth.
type Link struct {
	Name      string
	Bandwidth float64 // bytes/s
	Latency   float64 // seconds per message
}

// TimeFor returns the alpha-beta transfer time of n bytes.
func (l Link) TimeFor(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.Latency + bytes/l.Bandwidth
}

// Cluster is an N-node x M-GPU-per-node device mesh with homogeneous GPUs.
type Cluster struct {
	GPU         GPU
	Nodes       int
	GPUsPerNode int

	// IntraNode is the GPU<->GPU link inside one node (NVLink or PCIe
	// peer-to-peer). InterNode is the per-GPU share of the network NIC.
	IntraNode Link
	InterNode Link

	// HostLink is the CPU<->GPU PCIe link used by offloading (D2H/H2D).
	// D2H and H2D are independent DMA directions and can proceed
	// concurrently at full duplex.
	HostLink Link

	// HostMemPerGPU is a node's host RAM divided by its GPUs, in bytes:
	// the memory offloaded model states and activations land in.
	HostMemPerGPU float64
}

// TotalGPUs returns the device count of the mesh.
func (c *Cluster) TotalGPUs() int { return c.Nodes * c.GPUsPerNode }

// Validate checks mesh invariants.
func (c *Cluster) Validate() error {
	if c.Nodes <= 0 || c.GPUsPerNode <= 0 {
		return fmt.Errorf("hardware: invalid mesh %dx%d", c.Nodes, c.GPUsPerNode)
	}
	if c.GPU.MemoryBytes <= 0 || c.GPU.PeakFP16FLOPS <= 0 || c.GPU.MemBandwidth <= 0 {
		return fmt.Errorf("hardware: GPU %q has non-positive capability", c.GPU.Name)
	}
	if c.IntraNode.Bandwidth <= 0 || c.InterNode.Bandwidth <= 0 || c.HostLink.Bandwidth <= 0 {
		return fmt.Errorf("hardware: cluster %q has non-positive link bandwidth", c.GPU.Name)
	}
	return nil
}

// groupLink returns the effective link for a collective over group devices
// that are packed onto nodes contiguously: if the group fits within one
// node it uses the intra-node link, otherwise the ring crosses node
// boundaries and the slowest hop (inter-node) bounds throughput.
func (c *Cluster) groupLink(groupSize int) Link {
	if groupSize <= c.GPUsPerNode {
		return c.IntraNode
	}
	return c.InterNode
}

// AllReduceTime models a ring all-reduce of bytes over a group of n
// devices: 2(n-1)/n * bytes over the bottleneck link, plus 2(n-1) hop
// latencies.
func (c *Cluster) AllReduceTime(bytes float64, n int) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	l := c.groupLink(n)
	steps := float64(2 * (n - 1))
	return steps*l.Latency + 2*float64(n-1)/float64(n)*bytes/l.Bandwidth
}

// AllGatherTime models a ring all-gather where each device ends with bytes
// total: (n-1)/n * bytes over the bottleneck link.
func (c *Cluster) AllGatherTime(bytes float64, n int) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	l := c.groupLink(n)
	steps := float64(n - 1)
	return steps*l.Latency + float64(n-1)/float64(n)*bytes/l.Bandwidth
}

// ReduceScatterTime mirrors AllGatherTime (same ring traffic pattern).
func (c *Cluster) ReduceScatterTime(bytes float64, n int) float64 {
	return c.AllGatherTime(bytes, n)
}

// AllToAllTime models a personalized all-to-all over n devices where
// each device holds bytes total and keeps 1/n locally (the MoE dispatch
// and combine exchanges of expert parallelism).
func (c *Cluster) AllToAllTime(bytes float64, n int) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	l := c.groupLink(n)
	return float64(n-1)*l.Latency + float64(n-1)/float64(n)*bytes/l.Bandwidth
}

// P2PTime models a point-to-point activation transfer between adjacent
// pipeline stages. Whether the hop crosses nodes depends on the stage
// placement; crossNode selects the link.
func (c *Cluster) P2PTime(bytes float64, crossNode bool) float64 {
	l := c.IntraNode
	if crossNode {
		l = c.InterNode
	}
	return l.TimeFor(bytes)
}

const (
	gb  = 1 << 30
	gbs = 1e9 // 1 GB/s in bytes/s

	// usableMemoryFraction reserves space for CUDA context, NCCL buffers,
	// fragmentation, and framework workspace.
	usableMemoryFraction = 0.92
)

// MemoryBudget returns the per-GPU byte budget the planner may fill.
func (c *Cluster) MemoryBudget() float64 {
	return float64(c.GPU.MemoryBytes) * usableMemoryFraction
}

// HostMemory returns the host RAM of one node of the mesh, in bytes.
func (c *Cluster) HostMemory() float64 {
	return c.HostMemPerGPU * float64(c.GPUsPerNode)
}

// L4 returns an NVIDIA L4 GPU model: 24 GB GDDR6, 121 TFLOPS dense FP16,
// 300 GB/s memory bandwidth, PCIe Gen3 x16 host link (the GCP G2 platform
// in Table 3 exposes Gen3 x16 to each GPU).
func L4() GPU {
	return GPU{
		Name:                 "NVIDIA-L4",
		MemoryBytes:          24 * gb,
		PeakFP16FLOPS:        121e12,
		MemBandwidth:         300 * gbs,
		KernelLaunchOverhead: 6e-6,
		MatmulEfficiency:     0.62,
	}
}

// A100 returns an NVIDIA A100-SXM4-40GB model: 312 TFLOPS dense FP16,
// 1555 GB/s HBM2, NVLink 3 intra-node.
func A100() GPU {
	return GPU{
		Name:                 "NVIDIA-A100-40GB",
		MemoryBytes:          40 * gb,
		PeakFP16FLOPS:        312e12,
		MemBandwidth:         1555 * gbs,
		KernelLaunchOverhead: 4e-6,
		MatmulEfficiency:     0.70,
	}
}

// L4Cluster builds the paper's PCIe platform: nodes of 8x L4, PCIe Gen3 x16
// peer traffic (~12 GB/s effective, shared), 100 Gbps network NIC shared by
// the node's GPUs, and GCP g2-standard-96's 384 GB of host RAM for its 8
// GPUs (the smaller g2 shapes keep 48 GB per GPU).
func L4Cluster(nodes, gpusPerNode int) *Cluster {
	return &Cluster{
		GPU:           L4(),
		Nodes:         nodes,
		GPUsPerNode:   gpusPerNode,
		IntraNode:     Link{Name: "pcie3x16-p2p", Bandwidth: 12 * gbs, Latency: 10e-6},
		InterNode:     Link{Name: "eth-100gbps", Bandwidth: 100e9 / 8 / 8, Latency: 25e-6},
		HostLink:      Link{Name: "pcie3x16-host", Bandwidth: 12 * gbs, Latency: 10e-6},
		HostMemPerGPU: 384e9 / 8,
	}
}

// A100Cluster builds the paper's NVLink platform: nodes of 8x A100 with
// NVLink 3 (600 GB/s aggregate; ~230 GB/s effective per ring direction),
// PCIe Gen4 host link, 400 Gbps EFA network, and AWS p4d.24xlarge's 1152
// GiB of host RAM for its 8 GPUs.
func A100Cluster(nodes, gpusPerNode int) *Cluster {
	return &Cluster{
		GPU:           A100(),
		Nodes:         nodes,
		GPUsPerNode:   gpusPerNode,
		IntraNode:     Link{Name: "nvlink3", Bandwidth: 230 * gbs, Latency: 3e-6},
		InterNode:     Link{Name: "efa-400gbps", Bandwidth: 400e9 / 8 / 8, Latency: 15e-6},
		HostLink:      Link{Name: "pcie4x16-host", Bandwidth: 24 * gbs, Latency: 8e-6},
		HostMemPerGPU: 1152 * gb / 8,
	}
}

// MeshForGPUs follows the paper's scaling convention (2, 4, 8 GPUs on one
// node; 16 and 32 GPUs across 2 and 4 nodes of 8).
func MeshForGPUs(total int) (nodes, perNode int, err error) {
	switch {
	case total <= 0:
		return 0, 0, fmt.Errorf("hardware: non-positive GPU count %d", total)
	case total <= 8:
		return 1, total, nil
	case total%8 == 0:
		return total / 8, 8, nil
	default:
		return 0, 0, fmt.Errorf("hardware: GPU count %d not a multiple of 8", total)
	}
}

// platforms is the one table of platform names: each Table 3 platform,
// its cluster constructor, and the sequence length §6.1 trains it at.
var platforms = []struct {
	name  string
	seq   int
	build func(nodes, gpusPerNode int) *Cluster
}{
	{"l4", 2048, L4Cluster},
	{"a100", 4096, A100Cluster},
}

// ClusterByName builds the named platform ("l4" or "a100", any case)
// with gpus devices laid out by MeshForGPUs, and returns the platform's
// default sequence length. It returns MeshForGPUs's error for a GPU
// count the mesh cannot hold.
func ClusterByName(platform string, gpus int) (*Cluster, int, error) {
	nodes, perNode, err := MeshForGPUs(gpus)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range platforms {
		if strings.EqualFold(p.name, platform) {
			return p.build(nodes, perNode), p.seq, nil
		}
	}
	return nil, 0, fmt.Errorf("unknown platform %q", platform)
}

// HasNVLink reports whether the intra-node fabric is NVLink-class; used
// to pick the matching contention model for interference calibration.
func (c *Cluster) HasNVLink() bool {
	return strings.HasPrefix(c.IntraNode.Name, "nvlink")
}
