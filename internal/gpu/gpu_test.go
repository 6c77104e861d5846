package gpu

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSpecConversions(t *testing.T) {
	if A800.FLOPS() != 312e12 {
		t.Errorf("A800 FLOPS = %v", A800.FLOPS())
	}
	if A800.BandwidthBytes() != 2039e9 {
		t.Errorf("A800 BW = %v", A800.BandwidthBytes())
	}
	if A800.MemoryBytes() != 80*(1<<30) {
		t.Errorf("A800 mem = %v", A800.MemoryBytes())
	}
}

func TestPaperTestbedShape(t *testing.T) {
	topo := PaperTestbed()
	if topo.NumDevices() != 8 {
		t.Fatalf("devices = %d, want 8", topo.NumDevices())
	}
	for i := 0; i < 8; i++ {
		d := topo.Device(DeviceID(i))
		if wantNUMA := i / 4; d.NUMA != wantNUMA {
			t.Errorf("gpu%d NUMA = %d, want %d", i, d.NUMA, wantNUMA)
		}
		if want := DeviceID(i ^ 1); d.NVLinkPeer != want {
			t.Errorf("gpu%d peer = %d, want %d", i, d.NVLinkPeer, want)
		}
		if d.Spec.Name != "A800-80G" {
			t.Errorf("gpu%d spec = %s", i, d.Spec.Name)
		}
	}
}

func TestPathClassification(t *testing.T) {
	topo := PaperTestbed()
	cases := []struct {
		src, dst DeviceID
		want     LinkKind
	}{
		{0, 0, LinkLocal},
		{0, 1, LinkNVLink},      // bridged pair
		{2, 3, LinkNVLink},      // bridged pair
		{0, 2, LinkPCIeSwitch},  // same NUMA, not bridged
		{1, 3, LinkPCIeSwitch},  // same NUMA, not bridged
		{0, 4, LinkRootComplex}, // cross NUMA
		{3, 7, LinkRootComplex}, // cross NUMA
		{4, 5, LinkNVLink},      // bridged pair on NUMA 1
		{5, 6, LinkPCIeSwitch},  // same NUMA 1
	}
	for _, c := range cases {
		if got := topo.PathBetween(c.src, c.dst); got.Kind != c.want {
			t.Errorf("path %d→%d = %v, want %v", c.src, c.dst, got.Kind, c.want)
		}
	}
}

func TestPathSymmetry(t *testing.T) {
	topo := PaperTestbed()
	f := func(a, b uint8) bool {
		s, d := DeviceID(a%8), DeviceID(b%8)
		return topo.PathBetween(s, d).Kind == topo.PathBetween(d, s).Kind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBestPairLink(t *testing.T) {
	topo := PaperTestbed()
	// Groups {0,2} and {1,3}: 0→1 is NVLink, so best is NVLink.
	l := topo.BestPairLink([]DeviceID{0, 2}, []DeviceID{1, 3})
	if l.Kind != LinkNVLink {
		t.Errorf("best link = %v, want NVLink", l.Kind)
	}
	// Groups {0} and {4}: only cross-NUMA available.
	l = topo.BestPairLink([]DeviceID{0}, []DeviceID{4})
	if l.Kind != LinkRootComplex {
		t.Errorf("best link = %v, want root-complex", l.Kind)
	}
	// Overlapping single device → local.
	l = topo.BestPairLink([]DeviceID{0}, []DeviceID{0})
	if l.Kind != LinkLocal {
		t.Errorf("overlap link = %v, want local", l.Kind)
	}
}

func TestMixedTestbed(t *testing.T) {
	topo := MixedTestbed(RTX4090, 2, false, A800, 2, true)
	if topo.NumDevices() != 4 {
		t.Fatalf("devices = %d", topo.NumDevices())
	}
	// Consumer cards have no NVLink peers.
	if topo.Device(0).NVLinkPeer != -1 || topo.Device(1).NVLinkPeer != -1 {
		t.Error("RTX4090s should have no NVLink")
	}
	if topo.Device(0).Spec.Name != "RTX-4090" || topo.Device(2).Spec.Name != "A800-80G" {
		t.Error("specs misassigned")
	}
	// A800 pair keeps its bridge.
	if topo.Device(2).NVLinkPeer != 3 || topo.Device(3).NVLinkPeer != 2 {
		t.Error("A800 pair should be NVLinked")
	}
	// 4090↔4090 falls back to PCIe.
	if topo.PathBetween(0, 1).Kind != LinkPCIeSwitch {
		t.Error("4090 pair should route over PCIe")
	}
	// Odd group sizes leave the last device unpaired.
	topo2 := MixedTestbed(A800, 3, true, RTX4090, 1, false)
	if topo2.Device(2).NVLinkPeer != -1 {
		t.Errorf("odd A800 peer = %d, want -1", topo2.Device(2).NVLinkPeer)
	}
}

func TestHomogeneousTestbed(t *testing.T) {
	topo := HomogeneousTestbed(3, A100)
	if topo.NumDevices() != 3 {
		t.Fatalf("devices = %d", topo.NumDevices())
	}
	if topo.Device(0).NVLinkPeer != 1 || topo.Device(1).NVLinkPeer != 0 {
		t.Error("pair 0-1 should be NVLinked")
	}
	if topo.Device(2).NVLinkPeer != -1 {
		t.Errorf("odd device peer = %d, want -1", topo.Device(2).NVLinkPeer)
	}
	if topo.PathBetween(0, 2).Kind != LinkPCIeSwitch {
		t.Error("0→2 should be PCIe")
	}
}

func TestKVTransferTimeMatchesPaper(t *testing.T) {
	// Paper §2.2: ~1.5 GB KV cache over PCIe Gen4 ×16 @ 32 GB/s ≈ 47 ms raw
	// ("~65 ms" with protocol overhead). Sanity-check the raw number here;
	// the efficiency factor lives in internal/xfer.
	secs := 1.5e9 / PCIeGen4.BytesPerSecond()
	if secs < 0.04 || secs > 0.06 {
		t.Errorf("raw 1.5GB PCIe transfer = %.1f ms, want ~47 ms", secs*1e3)
	}
}

func TestLinkKindString(t *testing.T) {
	for k, want := range map[LinkKind]string{
		LinkNVLink: "NVLink", LinkPCIeSwitch: "PCIe-switch",
		LinkRootComplex: "root-complex", LinkLocal: "local", LinkHostPCIe: "host-PCIe",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(LinkKind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

func TestTopologyString(t *testing.T) {
	s := PaperTestbed().String()
	for _, want := range []string{"8 devices", "A800-80G", "NVLink 200"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
