package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"windserve/internal/gpu"
	"windserve/internal/kvcache"
	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/xfer"
)

// decodeInstance builds a pure decode instance on s with the given GPU
// and host KV budgets.
func decodeInstance(s *sim.Simulator, name string, kvTokens, hostTokens, maxBatch int, hooks Hooks) *Instance {
	cm := perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, perf.DefaultParams())
	ins, err := NewInstance(s, Config{
		Name: name, CM: cm, KV: kvcache.MustNew(kvTokens, hostTokens, 16),
		HostLink: xfer.NewLink(s, name+"-host", gpu.HostPCIe, 1), MaxDecodeBatch: maxBatch,
	}, hooks)
	if err != nil {
		panic(err)
	}
	return ins
}

// TestRunningMembershipInvariant drives random admit, evict (swap-out or
// recompute), swap-in, RemoveRunning/InsertRunning across two instances,
// Abort and Crash traffic — interleaved with simulator events, so many
// operations land while a pass is in flight — and checks after every step
// that r.runningOn == ins exactly when r is in ins.running.
func TestRunningMembershipInvariant(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		home := map[*Req]*Instance{} // the instance holding each request, if any
		free := func(r *Req) {
			delete(home, r)
			r.Phase, r.Migrating = PhaseWaiting, false
		}
		var inss [2]*Instance
		for i := range inss {
			inss[i] = decodeInstance(s, fmt.Sprintf("d%d", i), 24*16, 6*16, 8, Hooks{OnEvicted: free})
		}
		reqs := make([]*Req, 16)
		for i := range reqs {
			reqs[i] = req(uint64(i+1), 40, 1<<20)
			reqs[i].PrefillDone, reqs[i].Generated = 40, 1
		}
		check := func(step int, op string) {
			t.Helper()
			for _, r := range reqs {
				for _, ins := range inss {
					n := 0
					for _, x := range ins.running {
						if x == r {
							n++
						}
					}
					if n > 1 || (n == 1) != (r.runningOn == ins) {
						t.Fatalf("seed %d step %d (%s): %v appears %d times in %s.running, runningOn=%p, ins=%p",
							seed, step, op, r, n, ins.Name(), r.runningOn, ins)
					}
				}
			}
		}
		for step := 0; step < 600; step++ {
			r, ins := reqs[rng.Intn(len(reqs))], inss[rng.Intn(2)]
			other := inss[0]
			if other == ins {
				other = inss[1]
			}
			var op string
			switch rng.Intn(9) {
			case 0:
				op = "admit"
				if home[r] == nil && !ins.Down() && ins.KV().Allocate(r.KVID(), r.Ctx()+1) == nil {
					home[r] = ins
					ins.AdmitDecode(r)
				}
			case 1:
				op = "evict"
				if r.runningOn == ins {
					ins.evict(r)
				}
			case 2:
				op = "swap-in"
				ins.trySwapIn()
			case 3:
				op = "migrate"
				if r.runningOn == ins && !other.Down() && other.KV().Allocate(r.KVID(), r.Ctx()+1) == nil {
					ins.RemoveRunning(r)
					ins.ReleaseKV(r)
					home[r] = other
					other.InsertRunning(r)
				}
			case 4:
				op = "drain-resume"
				if ins.RemoveRunning(r) {
					ins.InsertRunning(r)
				}
			case 5:
				op = "abort"
				if home[r] == ins {
					r.Phase = PhaseAborted
					ins.Abort(r)
					free(r)
				}
			case 6:
				op = "crash"
				if rng.Intn(4) == 0 {
					for _, o := range ins.Crash() {
						free(o)
					}
					ins.Restore()
				}
			default:
				op = "run"
				for k := rng.Intn(6); k > 0 && s.Step(); k-- {
				}
			}
			check(step, op)
		}
	}
}

// BenchmarkEnginePass times one decode pass — step (batch formation,
// cost model, scheduling) through apply (token commit and one token of KV
// growth per request) — at 16 and 256 running decodes. A pass allocates
// nothing: the pass plan, with its event callbacks, is recycled.
func BenchmarkEnginePass(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("decodes=%d", n), func(b *testing.B) {
			s := sim.New()
			passes := 0
			ins := decodeInstance(s, "bench", 1<<40, 0, n, Hooks{OnIterationEnd: func() { passes++ }})
			for i := 0; i < n; i++ {
				r := req(uint64(i+1), 512, 1<<40)
				r.PrefillDone, r.Generated = 512, 1
				if err := ins.KV().Allocate(r.KVID(), r.Ctx()); err != nil {
					b.Fatal(err)
				}
				ins.AdmitDecode(r)
			}
			pass := func() {
				for want := passes + 1; passes < want; {
					if !s.Step() {
						b.Fatal("simulator drained")
					}
				}
			}
			pass() // admits the batch and warms the plan free list
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.StopTimer()
			if ins.NumRunning() != n {
				b.Fatalf("batch of %d changed shape: %d running", n, ins.NumRunning())
			}
		})
	}
}
