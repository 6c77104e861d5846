package plan

import (
	"testing"

	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/workload"
)

func TestCandidatesEnumerate(t *testing.T) {
	cands := Candidates(model.OPT13B, 4, 4)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if c.GPUs() != 4 {
			t.Errorf("candidate %v uses %d GPUs, want 4", c, c.GPUs())
		}
		if seen[c.String()] {
			t.Errorf("duplicate candidate %v", c)
		}
		seen[c.String()] = true
	}
	// The paper's Table 3 pair must be among them.
	if !seen["[TP-2,PP-1 | TP-2,PP-1]"] {
		t.Errorf("paper placement missing from %v", cands)
	}
	// TP-3 style shapes must not appear (40 heads).
	for _, c := range cands {
		for _, p := range []perf.Placement{c.Prefill, c.Decode} {
			if p.TP != 1 && p.TP != 2 && p.TP != 4 {
				t.Errorf("unexpected TP %d", p.TP)
			}
		}
	}
}

func TestCandidatesRespectBudget(t *testing.T) {
	for _, budget := range []int{2, 4, 8} {
		for _, c := range Candidates(model.OPT13B, budget, 4) {
			if c.GPUs() != budget {
				t.Errorf("budget %d: candidate %v", budget, c)
			}
		}
	}
	// Odd budgets work too: one side gets the extra GPU via TP or PP.
	if got := Candidates(model.OPT13B, 3, 4); len(got) == 0 {
		t.Error("no 3-GPU candidates")
	}
}

func TestSearchRanksPaperPlacementHighly(t *testing.T) {
	// At the paper's OPT-13B operating point, the search should prefer a
	// balanced [TP-2 | TP-2] (Table 3) over starved-decode shapes.
	evals, err := Search(model.OPT13B, workload.ShareGPT(), 2.5, 4, Options{Requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) < 2 {
		t.Fatalf("evals = %d", len(evals))
	}
	best := evals[0]
	if best.Err != nil {
		t.Fatalf("best candidate failed: %v", best.Err)
	}
	if best.Attainment <= 0.5 {
		t.Errorf("best attainment = %.2f", best.Attainment)
	}
	// The winner must dominate the worst runnable candidate.
	var worst Evaluation
	for i := len(evals) - 1; i >= 0; i-- {
		if evals[i].Err == nil {
			worst = evals[i]
			break
		}
	}
	if best.Attainment < worst.Attainment {
		t.Errorf("ranking broken: best %.2f < worst %.2f", best.Attainment, worst.Attainment)
	}
	// Paper's choice gives the decode side 2 GPUs; the planner should not
	// pick a 1-GPU decode instance at this rate (Fig. 3's bad case).
	if best.Candidate.Decode.GPUs() < 2 {
		t.Errorf("planner picked starved decode: %v", best.Candidate)
	}
}

func TestSearchWindServeSystem(t *testing.T) {
	evals, err := Search(model.OPT13B, workload.ShareGPT(), 3, 4, Options{Requests: 150, System: "windserve"})
	if err != nil {
		t.Fatal(err)
	}
	if evals[0].Err != nil {
		t.Fatal(evals[0].Err)
	}
	if evals[0].GoodputPerGPU <= 0 {
		t.Error("goodput not computed")
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(model.OPT13B, workload.ShareGPT(), 1, 4, Options{System: "bogus", Requests: 10}); err == nil {
		t.Error("unknown system accepted")
	}
	// 70B on a 2-GPU budget: every candidate fails to hold weights, so
	// every evaluation must carry its error.
	evals, err := Search(model.LLaMA270B, workload.LongBench(), 0.1, 2, Options{Requests: 10})
	if err != nil || len(evals) == 0 {
		t.Fatalf("evals %v, err %v", evals, err)
	}
	for _, ev := range evals {
		if ev.Err == nil {
			t.Errorf("impossible budget: %v ran", ev.Candidate)
		}
	}
}

func TestBestReturnsWinner(t *testing.T) {
	evals, err := Search(model.OPT13B, workload.ShareGPT(), 2, 4, Options{Requests: 120})
	if err != nil {
		t.Fatal(err)
	}
	if best := evals[0]; best.Err != nil || best.Candidate.GPUs() != 4 {
		t.Errorf("best = %v (err %v)", best.Candidate, best.Err)
	}
}
