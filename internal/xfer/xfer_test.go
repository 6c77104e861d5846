package xfer

import (
	"math"
	"testing"
	"testing/quick"

	"windserve/internal/gpu"
	"windserve/internal/sim"
)

func TestTransferTimeMatchesPaperExample(t *testing.T) {
	// Paper §2.2: ~1.5 GB of KV over PCIe Gen4 ×16 takes ~65 ms.
	s := sim.New()
	l := NewLink(s, "pcie", gpu.PCIeGen4, DefaultEfficiency)
	d := l.TransferTime(1.5e9)
	if ms := d.Milliseconds(); ms < 55 || ms > 75 {
		t.Errorf("1.5 GB PCIe transfer = %.1f ms, want ~65 ms", ms)
	}
	// NVLink makes the same payload near-free (paper: "near-zero for
	// devices with GPU high-speed interconnects").
	nv := NewLink(s, "nvlink", gpu.NVLinkBridge, DefaultEfficiency)
	if ratio := d.Seconds() / nv.TransferTime(1.5e9).Seconds(); ratio < 5 {
		t.Errorf("PCIe/NVLink ratio = %.1f, want >5", ratio)
	}
}

func TestTransferFIFOOrdering(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "link", gpu.PCIeGen4, 1)
	var done []int
	l.Transfer(32e9, func() { done = append(done, 1) }) // 1 s
	l.Transfer(16e9, func() { done = append(done, 2) }) // 0.5 s, queued
	if !l.Busy() || l.QueueLen() != 1 {
		t.Fatalf("busy=%v queue=%d", l.Busy(), l.QueueLen())
	}
	if l.Backlog() <= 0 {
		t.Error("backlog should be positive")
	}
	s.RunAll()
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("done order = %v", done)
	}
	if l.Busy() || l.QueueLen() != 0 {
		t.Error("link not drained")
	}
	if l.BytesMoved != 48e9 {
		t.Errorf("BytesMoved = %v", l.BytesMoved)
	}
	if l.BusyTime() <= sim.Seconds(1.4) {
		t.Errorf("BusyTime = %v, want ~1.5s", l.BusyTime())
	}
}

func TestLatencyFloor(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "link", gpu.LinkSpec{Kind: gpu.LinkPCIeSwitch, GBs: 32, LatencyUS: 100}, 1)
	// Even a zero-byte transfer pays the link latency.
	if d := l.TransferTime(0); math.Abs(d.Seconds()-100e-6) > 1e-12 {
		t.Errorf("zero-byte transfer = %v, want 100us", d)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	s := sim.New()
	for _, eff := range []float64{0, -1, 1.5} {
		eff := eff
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("efficiency %v accepted", eff)
				}
			}()
			NewLink(s, "bad", gpu.PCIeGen4, eff)
		}()
	}
	l := NewLink(s, "link", gpu.PCIeGen4, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	l.TransferTime(-1)
}

// Property: transfer time scales linearly with size above the latency
// floor, and queued transfers never complete out of order.
func TestPropertyLinearAndOrdered(t *testing.T) {
	f := func(a, b uint32) bool {
		s := sim.New()
		l := NewLink(s, "link", gpu.PCIeGen4, DefaultEfficiency)
		x, y := float64(a%1000)*1e6, float64(b%1000)*1e6
		lat := sim.Microseconds(gpu.PCIeGen4.LatencyUS)
		tx, ty := l.TransferTime(x)-lat, l.TransferTime(y)-lat
		sum := l.TransferTime(x+y) - lat
		if math.Abs((tx + ty - sum).Seconds()) > 1e-9 {
			return false
		}
		var order []int
		l.Transfer(y, func() { order = append(order, 1) })
		l.Transfer(x, func() { order = append(order, 2) })
		s.RunAll()
		return len(order) == 2 && order[0] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
