package fleet

// The role controller is the fleet's elastic brain: it watches each
// replica's self-reported pressure signals (the same netDelay-stale view
// the routing policies read) and flips instances between prefill and
// decode roles when one phase is predicted to miss its SLO while the
// other has headroom. Decisions happen on the router actor; execution is
// an mFlip message to the replica, whose serve-layer drain/migrate
// protocol (serve/elastic.go) does the actual work. Hysteresis lives in
// decide, overload deferral in the brown-out latch, and a per-replica
// cooldown keeps the fleet from thrashing.

import (
	"fmt"

	"windserve/internal/engine"
	"windserve/internal/sched"
	"windserve/internal/sim"
)

// The flip policy.
const (
	// flipEvery is the controller's evaluation period.
	flipEvery = sim.Duration(0.25)
	// flipCooldown is the minimum spacing between flips of the same
	// replica, so a flip's drain/migration cost is amortized before the
	// next decision.
	flipCooldown = sim.Duration(5)
	// flipRatio is the hysteresis factor: a flip toward a role requires
	// that role's pressure to exceed the other's by at least this ratio.
	flipRatio = 2
	// flipMinPressure gates flips entirely until the winning side's
	// pressure (predicted latency / SLO target) reaches this floor — an
	// idle cluster must not oscillate on noise.
	flipMinPressure = 0.5
	// roleFloor is the per-role acting instance count a flip may never
	// go below.
	roleFloor = 1
)

// decide maps a pair of pressures onto a flip decision: whether to flip
// one instance, and if so whether toward decode. prefillPressure and
// decodePressure are dimensionless (predicted latency over SLO target;
// 1.0 = at the objective). A flip toward the loaded role requires its
// pressure to reach flipMinPressure AND exceed the other side by
// flipRatio, and must leave the shrinking role above roleFloor.
func decide(prefillPressure, decodePressure float64, actPrefill, actDecode int) (flip, toDecode bool) {
	if prefillPressure >= flipMinPressure && prefillPressure >= flipRatio*decodePressure && actDecode > roleFloor {
		return true, false
	}
	if decodePressure >= flipMinPressure && decodePressure >= flipRatio*prefillPressure && actPrefill > roleFloor {
		return true, true
	}
	return false, false
}

// roleController runs on the router shard. One tick chain (the same
// kick/park pattern as replica load reports) evaluates every replica;
// per-replica cooldown and pending-flip state serialize flips so a
// replica never sees a second mFlip while draining the first.
type roleController struct {
	f *fleet

	// profP/profD predict prefill latency and decode iteration time for
	// the replicas' instance shapes (identical across replicas).
	profP, profD *sched.Profiler

	pendingFlip []bool     // an mFlip is in flight toward this replica
	nextFlipAt  []sim.Time // cooldown gate, per replica

	ticking bool
	tickFn  func()

	flips    int // executed flips (FlipResult.OK)
	migrated int // decode streams migrated by flips
	requeued int // queued prefills re-routed by flips
}

func newRoleController(f *fleet) (*roleController, error) {
	pcm, dcm := f.acts[0].rp.Shape()
	profP, err := sched.Profile(pcm, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: profiling prefill shape: %w", err)
	}
	profD, err := sched.Profile(dcm, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: profiling decode shape: %w", err)
	}
	rc := &roleController{
		f: f, profP: profP, profD: profD,
		pendingFlip: make([]bool, f.cfg.NumReplicas),
		nextFlipAt:  make([]sim.Time, f.cfg.NumReplicas),
	}
	rc.tickFn = rc.tick
	return rc, nil
}

// kick (re)starts the tick chain; called on every admission. Nil-safe so
// the static fleet's admit path stays branch-free.
func (rc *roleController) kick() {
	if rc == nil || rc.ticking {
		return
	}
	rc.ticking = true
	rc.f.s.Schedule(flipEvery, rc.tickFn)
}

// tick evaluates every replica once, then re-arms — or parks when the
// fleet has drained, so the shard group can terminate.
func (rc *roleController) tick() {
	f := rc.f
	if len(f.state) == 0 && len(f.parked) == 0 {
		rc.ticking = false // idle: park; the next admission restarts it
		return
	}
	f.updateBrownout()
	if !f.brownout {
		// A browned-out fleet defers flips the way it defers failovers:
		// draining and re-prefilling work mid-overload only deepens it.
		for i := range f.replicas {
			rc.consider(i)
		}
	}
	f.s.Schedule(flipEvery, rc.tickFn)
}

// consider evaluates one replica and sends at most one mFlip.
func (rc *roleController) consider(i int) {
	f := rc.f
	if f.down[i] || f.partitioned[i] || rc.pendingFlip[i] || f.s.Now() < rc.nextFlipAt[i] {
		return
	}
	sig := f.replicas[i].sig
	if sig.actP <= 0 || sig.actD <= 0 {
		return // no elastic report yet (or a role drained to zero mid-crash)
	}
	pp, dp := rc.pressures(sig)
	flip, toDecode := decide(pp, dp, sig.actP, sig.actD)
	if !flip {
		return
	}
	dir, a := "to-prefill", 0
	if toDecode {
		dir, a = "to-decode", 1
	}
	f.dec.AddRoute(f.s.Now(), 0, f.replicas[i].Name(),
		fmt.Sprintf("flip-%s pp=%.2f dp=%.2f", dir, pp, dp))
	rc.pendingFlip[i] = true
	f.sendTo(i, msg{kind: mFlip, a: a})
}

// pressures converts a replica's load signals into dimensionless SLO
// pressures: predicted TTFT of the per-instance prompt backlog over the
// TTFT SLO, and the larger of decode batch occupancy and predicted
// iteration time over the TPOT SLO. A pressure of 1.0 means the phase is
// right at its SLO with zero slack.
func (rc *roleController) pressures(sig loadInfo) (prefill, decode float64) {
	slo := rc.f.cfg.Replica.SLO
	prefill = sloRatio(rc.profP.PredictPrefill(sig.qTok/sig.actP), slo.TTFT)
	decode = float64(sig.run) / float64(sig.actD*engine.DefaultMaxDecodeBatch)
	if r := sloRatio(rc.profD.PredictDecode(sig.sumCtx/sig.actD), slo.TPOT); r > decode {
		decode = r
	}
	return prefill, decode
}

// sloRatio is predicted/slo with a zero SLO reading as "no pressure" —
// an unset SLO must not divide by zero or pin the controller one way.
func sloRatio(pred, slo sim.Duration) float64 {
	if slo <= 0 {
		return 0
	}
	return pred.Seconds() / slo.Seconds()
}

// flipDone resolves one flip: the replica finished (or refused) the role
// change. The cooldown arms either way — a refused flip means the floor
// or health stopped it, and re-asking every tick would spam the wire.
func (rc *roleController) flipDone(idx int, m msg) {
	if rc == nil {
		return
	}
	rc.pendingFlip[idx] = false
	rc.nextFlipAt[idx] = rc.f.s.Now().Add(flipCooldown)
	if m.ok {
		rc.flips++
		rc.migrated += m.a
		rc.requeued += m.b
	}
}
