// Package gpu models the hardware substrate WindServe runs on: GPU device
// specifications (compute, memory, bandwidth) and the interconnect topology
// of the paper's testbed (Fig. 9): 8× NVIDIA A800-80GB across two NUMA
// nodes, NVLink-bridged in pairs, PCIe Gen4 within a NUMA node, and the
// root complex across nodes.
//
// Nothing here executes real kernels; the specs feed the roofline cost
// model in internal/perf and the transfer engine in internal/xfer.
package gpu

import "fmt"

// Spec describes one GPU device model.
type Spec struct {
	// Name is the marketing name, e.g. "A800-80G".
	Name string
	// FP16TFLOPS is peak dense FP16 tensor-core throughput (TFLOP/s).
	FP16TFLOPS float64
	// HBMBandwidthGBs is peak device-memory bandwidth (GB/s).
	HBMBandwidthGBs float64
	// MemoryGiB is device memory capacity (GiB).
	MemoryGiB float64
	// SMs is the number of streaming multiprocessors (informational; the
	// SBD contention model works in fractions of the device).
	SMs int
}

// FLOPS returns peak FP16 throughput in FLOP/s.
func (s Spec) FLOPS() float64 { return s.FP16TFLOPS * 1e12 }

// BandwidthBytes returns peak HBM bandwidth in bytes/s.
func (s Spec) BandwidthBytes() float64 { return s.HBMBandwidthGBs * 1e9 }

// MemoryBytes returns device memory capacity in bytes.
func (s Spec) MemoryBytes() float64 { return s.MemoryGiB * (1 << 30) }

// Built-in device specs. The A800-80G matches the paper's testbed; the
// others support the heterogeneous-cluster discussion in the paper's
// future-work section and additional experiments.
var (
	// A800 is the PCIe A800-80GB used in the paper: A100-class compute
	// with NVLink capped at 400 GB/s bidirectional.
	A800 = Spec{Name: "A800-80G", FP16TFLOPS: 312, HBMBandwidthGBs: 2039, MemoryGiB: 80, SMs: 108}
	// A100 SXM 80 GB.
	A100 = Spec{Name: "A100-80G", FP16TFLOPS: 312, HBMBandwidthGBs: 2039, MemoryGiB: 80, SMs: 108}
	// H100 SXM.
	H100 = Spec{Name: "H100-80G", FP16TFLOPS: 989, HBMBandwidthGBs: 3350, MemoryGiB: 80, SMs: 132}
	// RTX4090: high compute, low memory — the paper's candidate prefill
	// device for heterogeneous clusters (§7).
	RTX4090 = Spec{Name: "RTX-4090", FP16TFLOPS: 165, HBMBandwidthGBs: 1008, MemoryGiB: 24, SMs: 128}
)

// LinkKind classifies an interconnect hop.
type LinkKind int

const (
	// LinkNVLink is an NVLink bridge between a GPU pair.
	LinkNVLink LinkKind = iota
	// LinkPCIeSwitch is PCIe Gen4 ×16 through a switch within one NUMA node.
	LinkPCIeSwitch
	// LinkRootComplex is a cross-NUMA path through the CPU root complex.
	LinkRootComplex
	// LinkLocal means source and destination are the same GPU.
	LinkLocal
	// LinkHostPCIe is the GPU↔host-DRAM path used for KV-cache swapping.
	LinkHostPCIe
)

func (k LinkKind) String() string {
	switch k {
	case LinkNVLink:
		return "NVLink"
	case LinkPCIeSwitch:
		return "PCIe-switch"
	case LinkRootComplex:
		return "root-complex"
	case LinkLocal:
		return "local"
	case LinkHostPCIe:
		return "host-PCIe"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// LinkSpec gives the unidirectional bandwidth and base latency for one hop.
type LinkSpec struct {
	Kind LinkKind
	// GBs is unidirectional bandwidth in GB/s.
	GBs float64
	// LatencyUS is the fixed per-transfer latency in microseconds.
	LatencyUS float64
}

// BytesPerSecond returns the link bandwidth in bytes/s.
func (l LinkSpec) BytesPerSecond() float64 { return l.GBs * 1e9 }

// Default link specs for the paper's testbed. NVLink 400 GB/s bidirectional
// → 200 GB/s per direction; PCIe Gen4 ×16 64 GB/s bidirectional → 32 GB/s
// per direction (the paper's ~65 ms for a 1.5 GB KV cache plus protocol
// overhead implies ~23 GB/s effective; we model 32 GB/s raw with an
// efficiency factor applied in internal/xfer).
var (
	NVLinkBridge = LinkSpec{Kind: LinkNVLink, GBs: 200, LatencyUS: 5}
	PCIeGen4     = LinkSpec{Kind: LinkPCIeSwitch, GBs: 32, LatencyUS: 10}
	RootComplex  = LinkSpec{Kind: LinkRootComplex, GBs: 24, LatencyUS: 25}
	HostPCIe     = LinkSpec{Kind: LinkHostPCIe, GBs: 32, LatencyUS: 10}
	SameDevice   = LinkSpec{Kind: LinkLocal, GBs: 1300, LatencyUS: 1} // device-to-device copy within one GPU
)

// DeviceID identifies a GPU within a Topology.
type DeviceID int

// Device is one GPU in the cluster.
type Device struct {
	ID   DeviceID
	Spec Spec
	// NUMA is the NUMA node the device attaches to.
	NUMA int
	// NVLinkPeer is the device this GPU shares an NVLink bridge with, or
	// -1 if none.
	NVLinkPeer DeviceID
}

// Topology is a cluster of GPUs and the rules for routing between them.
type Topology struct {
	Devices []Device
	// links maps kind → spec so alternative hardware can be configured.
	links map[LinkKind]LinkSpec
}

// NewTopology builds a topology over devices using the default link specs.
func NewTopology(devices []Device) *Topology {
	t := &Topology{
		Devices: devices,
		links: map[LinkKind]LinkSpec{
			LinkNVLink:      NVLinkBridge,
			LinkPCIeSwitch:  PCIeGen4,
			LinkRootComplex: RootComplex,
			LinkLocal:       SameDevice,
			LinkHostPCIe:    HostPCIe,
		},
	}
	return t
}

// PaperTestbed returns the 8×A800 dual-NUMA topology of the paper's Fig. 9:
// devices 0..3 on NUMA 0, 4..7 on NUMA 1, NVLink bridges between pairs
// (0,1), (2,3), (4,5), (6,7).
func PaperTestbed() *Topology {
	devs := make([]Device, 8)
	for i := range devs {
		peer := i ^ 1 // pairwise bridges
		devs[i] = Device{ID: DeviceID(i), Spec: A800, NUMA: i / 4, NVLinkPeer: DeviceID(peer)}
	}
	return NewTopology(devs)
}

// MixedTestbed returns a heterogeneous node (the paper's §7 proposal):
// nA GPUs of specA followed by nB GPUs of specB, all on one NUMA node.
// Devices are NVLink-paired within each group only when the spec supports
// NVLink (consumer cards like the RTX 4090 do not — withNVLinkA/B).
func MixedTestbed(specA Spec, nA int, withNVLinkA bool, specB Spec, nB int, withNVLinkB bool) *Topology {
	devs := make([]Device, 0, nA+nB)
	add := func(spec Spec, n int, nvlink bool, base int) {
		for i := 0; i < n; i++ {
			peer := DeviceID(-1)
			if nvlink {
				p := i ^ 1
				if p < n {
					peer = DeviceID(base + p)
				}
			}
			devs = append(devs, Device{ID: DeviceID(base + i), Spec: spec, NUMA: 0, NVLinkPeer: peer})
		}
	}
	add(specA, nA, withNVLinkA, 0)
	add(specB, nB, withNVLinkB, nA)
	return NewTopology(devs)
}

// HomogeneousTestbed returns n GPUs of the given spec on one NUMA node with
// NVLink between adjacent pairs, for smaller experiments.
func HomogeneousTestbed(n int, spec Spec) *Topology {
	devs := make([]Device, n)
	for i := range devs {
		peer := i ^ 1
		if peer >= n {
			peer = -1
		}
		devs[i] = Device{ID: DeviceID(i), Spec: spec, NUMA: 0, NVLinkPeer: DeviceID(peer)}
	}
	return NewTopology(devs)
}

// Link returns the spec for a link kind.
func (t *Topology) Link(kind LinkKind) LinkSpec { return t.links[kind] }

// NumDevices returns the number of GPUs.
func (t *Topology) NumDevices() int { return len(t.Devices) }

// Device returns the device with the given id.
func (t *Topology) Device(id DeviceID) Device {
	return t.Devices[int(id)]
}

// PathBetween classifies the interconnect path from src to dst:
// same device → local; NVLink-bridged pair → NVLink; same NUMA → PCIe
// switch; otherwise → root complex.
func (t *Topology) PathBetween(src, dst DeviceID) LinkSpec {
	if src == dst {
		return t.links[LinkLocal]
	}
	s, d := t.Device(src), t.Device(dst)
	if s.NVLinkPeer == dst {
		return t.links[LinkNVLink]
	}
	if s.NUMA == d.NUMA {
		return t.links[LinkPCIeSwitch]
	}
	return t.links[LinkRootComplex]
}

// HostPath returns the GPU↔host link used for swapping.
func (t *Topology) HostPath() LinkSpec { return t.links[LinkHostPCIe] }

// BestPairLink returns the fastest link between any device in group a and
// any device in group b — the path a cross-instance KV transfer will use
// when instances span multiple GPUs (rank-aligned transfers pick the best
// available pairing).
func (t *Topology) BestPairLink(a, b []DeviceID) LinkSpec {
	best := LinkSpec{GBs: -1}
	for _, s := range a {
		for _, d := range b {
			if s == d {
				continue
			}
			l := t.PathBetween(s, d)
			if l.GBs > best.GBs {
				best = l
			}
		}
	}
	if best.GBs < 0 {
		return t.links[LinkLocal]
	}
	return best
}

func (t *Topology) String() string {
	s := fmt.Sprintf("topology: %d devices\n", len(t.Devices))
	for _, d := range t.Devices {
		s += fmt.Sprintf("  gpu%-2d %-9s NUMA%d nvlink-peer=%d\n", d.ID, d.Spec.Name, d.NUMA, d.NVLinkPeer)
	}
	s += fmt.Sprintf("  links: NVLink %.0f GB/s, PCIe %.0f GB/s, root-complex %.0f GB/s, host %.0f GB/s",
		t.links[LinkNVLink].GBs, t.links[LinkPCIeSwitch].GBs, t.links[LinkRootComplex].GBs, t.links[LinkHostPCIe].GBs)
	return s
}
