package serve

import (
	"testing"

	"windserve/internal/perf"
	"windserve/internal/workload"
)

// multiCfg is a 2-prefill + 2-decode OPT-13B deployment on 8 GPUs.
func multiCfg(t *testing.T) Config {
	t.Helper()
	cfg := cfg13B(t)
	cfg.NumPrefill = 2
	cfg.NumDecode = 2
	return cfg
}

func TestMultiInstanceDrainsAllSystems(t *testing.T) {
	cfg := multiCfg(t)
	if cfg.TotalGPUs() != 8 {
		t.Fatalf("TotalGPUs = %d", cfg.TotalGPUs())
	}
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 3 * 8}, 42)
	reqs := g.Generate(400)
	for name, run := range allSystems() {
		res, err := run(cfg, workload.NewSliceSource(reqs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Unfinished != 0 {
			t.Errorf("%s: %d unfinished", name, res.Unfinished)
		}
		if len(res.Records) != 400 {
			t.Errorf("%s: %d records", name, len(res.Records))
		}
	}
}

// The linear scaling rule (paper §2.2): doubling instances at the same
// per-GPU rate should keep per-GPU service quality roughly constant.
func TestLinearScalingAcrossInstances(t *testing.T) {
	single := cfg13B(t)
	double := multiCfg(t)
	const rate = 3.0
	mk := func(cfg Config, seed int64) []workload.Request {
		g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate * float64(cfg.TotalGPUs())}, seed)
		return g.Generate(500)
	}
	s, err := RunWindServeFrom(single, workload.NewSliceSource(mk(single, 42)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunWindServeFrom(double, workload.NewSliceSource(mk(double, 42)))
	if err != nil {
		t.Fatal(err)
	}
	// Attainment within 12 points; the doubled deployment must not
	// collapse (routing works) nor dramatically exceed (no free lunch).
	if diff := d.Summary.Attainment - s.Summary.Attainment; diff < -0.12 || diff > 0.12 {
		t.Errorf("attainment drifted across scales: 1x=%.2f 2x=%.2f", s.Summary.Attainment, d.Summary.Attainment)
	}
	if d.Dispatched == 0 {
		t.Error("multi-instance WindServe never dispatched")
	}
}

func TestMultiInstanceWindServeMechanisms(t *testing.T) {
	// Starved decode instances: migrations must flow in the multi-instance
	// wiring too, picking real source/destination pairs.
	cfg := multiCfg(t)
	cfg.DecodePlace = perf.Placement{TP: 1, PP: 1}
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 3 * float64(cfg.TotalGPUs())}, 42)
	reqs := g.Generate(500)
	res, err := RunWindServeFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished", res.Unfinished)
	}
	if res.Rescheduled == 0 {
		t.Error("no migrations with starved multi decode instances")
	}
	if res.Dispatched == 0 {
		t.Error("no dispatch with multi instances")
	}
}

func TestMultiInstanceDistServeRoundRobins(t *testing.T) {
	cfg := multiCfg(t)
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 2 * 8}, 9)
	reqs := g.Generate(200)
	res, err := RunDistServeFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished", res.Unfinished)
	}
	// Both decode instances must have seen KV traffic: peak usage
	// aggregated over instances exceeds one instance's plausible share.
	if res.DecodeKV.PeakBlocks == 0 {
		t.Error("no decode KV usage recorded")
	}
	if res.TransferGB <= 0 {
		t.Error("no transfers")
	}
}

func TestMultiInstanceRejectsOversizedDeployment(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumPrefill = 3
	cfg.NumDecode = 2 // 10 GPUs on an 8-GPU testbed
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 8}, 1)
	if _, err := RunDistServeFrom(cfg, workload.NewSliceSource(g.Generate(10))); err == nil {
		t.Fatal("oversubscribed deployment accepted")
	}
}
