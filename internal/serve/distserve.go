package serve

import (
	"fmt"

	"windserve/internal/cluster"
	"windserve/internal/engine"
	"windserve/internal/kvcache"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/workload"
	"windserve/internal/xfer"
)

// RunDistServeFrom simulates the static phase-disaggregated baseline: prefill
// and decode instances with FCFS local schedulers and no cross-instance
// coordination (§2.2). After a prompt prefills, its KV cache crosses the
// interconnect serially (blocking that request's decode start), the
// prefill-side copy is dropped, and the request queues for decode
// admission — the behaviors whose costs Fig. 1 and Fig. 3 measure.
//
// With multiple instances (Config.NumPrefill/NumDecode), requests are
// routed round-robin — DistServe's orchestration is static.
//
// Arrivals are pulled from src one at a time as the stream is consumed,
// so the trace is never materialized.
func RunDistServeFrom(cfg Config, src workload.Source) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	cfg = r.cfg

	d, err := newPD(r, cfg, pdHooks{})
	if err != nil {
		return nil, fmt.Errorf("serve: planning DistServe: %w", err)
	}
	r.queueDepth = d.queueDepth
	r.onAbort = d.abort
	if err := installPDFaults(r, d); err != nil {
		return nil, err
	}
	r.scheduleStream(src, func(q *engine.Req) {
		d.prefillRR(q)
	})
	res := r.run("DistServe")
	d.finalize(res)
	return res, nil
}

// pd is the shared prefill+decode cluster both DistServe and WindServe
// build on. DistServe uses it as-is with round-robin routing; WindServe
// attaches the Global Scheduler.
type pd struct {
	r        *runner
	cfg      Config
	ph       pdHooks
	prefills []*engine.Instance
	decodes  []*engine.Instance
	// p2d[i][j] carries post-prefill KV transfers from prefill i to
	// decode j; d2p[j][i] carries migrations and backups the other way.
	p2d, d2p [][]*xfer.Link
	// pp and dd (elastic only) complete the link mesh for flipped roles:
	// pp[i][i'] between prefill homes, dd[j][j'] between decode homes,
	// nil on the diagonals. With Elastic off both stay nil and every
	// index space collapses to the static one — byte-identical wiring.
	pp, dd [][]*xfer.Link

	// pFlipped[i] marks home prefill i currently acting as a decode
	// instance; dFlipped[j] marks home decode j acting as prefill. Both
	// nil unless cfg.Elastic. Routing works in extended index spaces:
	// prefill-space i ∈ [0, P+D) (i ≥ P is home decode i-P acting
	// prefill) and decode-space j ∈ [0, D+P) (j ≥ D is home prefill j-D
	// acting decode); prefillAt holds prefill-space indices, decodeAt
	// decode-space indices.
	pFlipped, dFlipped []bool

	// migrating tracks decode streams mid-flight between acting decodes
	// (a role flip draining its batch). The pointer identity check
	// against the stored request guards the transfer callback: a crash
	// or abort that scrubbed and re-admitted the same ID leaves a stale
	// callback that must not touch the new incarnation.
	migrating map[uint64]*flipMigration

	// prefillAt and decodeAt remember each request's instances, so
	// transfers pick the right link and releases hit the right manager.
	prefillAt map[uint64]int
	decodeAt  map[uint64]int

	// transferPending are prefilled requests waiting for decode KV.
	transferPending []*engine.Req

	rr struct{ prefill, decode int }

	// stats
	asyncXfers int
}

// flipMigration is one decode stream's flight record between acting decodes.
type flipMigration struct {
	q        *engine.Req
	src, dst int // decode-space indices
}

// pdHooks lets WindServe inject policy into the shared wiring.
type pdHooks struct {
	// onPrefillStart fires at a prefill instance (async transfers).
	onPrefillStart func(q *engine.Req)
	// transfer overrides the post-prefill transfer path. Return true if
	// handled; false falls back to the serial DistServe path.
	transfer func(q *engine.Req) bool
	// onDecodeIterEnd fires after each pass of decode instance j.
	onDecodeIterEnd func(j int)
	// onComplete observes completions on any instance (backup cleanup).
	onComplete func(q *engine.Req)
	// onTransfer observes every completed p2d KV copy (payload bytes and
	// wall time including link queuing) — the Profiler's transfer-rate
	// feedback.
	onTransfer func(bytes float64, elapsed sim.Duration)
	// crashPrefill/crashDecode override orphan recovery after a crash of
	// the given instance (WindServe's backup-aware path). Nil uses the
	// pd-default re-prefill-from-scratch recovery.
	crashPrefill func(i int)
	crashDecode  func(j int)
	// decodeSBD enables the second stream on decode instances.
	decodeSBD bool
	// decodeAllowPrefill lets decode instances run prefill in their main
	// stream (WindServe-no-split ablation).
	decodeAllowPrefill bool
}

func newPD(r *runner, cfg Config, ph pdHooks) (*pd, error) {
	specs := make([]cluster.InstanceSpec, 0, cfg.NumPrefill+cfg.NumDecode)
	for i := 0; i < cfg.NumPrefill; i++ {
		specs = append(specs, cluster.InstanceSpec{Role: cluster.RolePrefill, Place: cfg.PrefillPlace})
	}
	for i := 0; i < cfg.NumDecode; i++ {
		specs = append(specs, cluster.InstanceSpec{Role: cluster.RoleDecode, Place: cfg.DecodePlace})
	}
	asg, err := cluster.Plan(cfg.Topo, cfg.Model, cfg.Params, cfg.ReserveFrac, specs...)
	if err != nil {
		return nil, err
	}
	pAsg, dAsg := asg[:cfg.NumPrefill], asg[cfg.NumPrefill:]

	d := &pd{
		r: r, cfg: cfg, ph: ph,
		prefillAt: make(map[uint64]int),
		decodeAt:  make(map[uint64]int),
	}
	px := cfg.NamePrefix
	d.p2d = make([][]*xfer.Link, cfg.NumPrefill)
	d.d2p = make([][]*xfer.Link, cfg.NumDecode)
	for i := range d.p2d {
		d.p2d[i] = make([]*xfer.Link, cfg.NumDecode)
		for j := range d.p2d[i] {
			spec := cluster.TransferLink(cfg.Topo, pAsg[i], dAsg[j])
			d.p2d[i][j] = xfer.NewLink(r.s, fmt.Sprintf("%sp%d-d%d", px, i, j), spec, xfer.DefaultEfficiency)
		}
	}
	for j := range d.d2p {
		d.d2p[j] = make([]*xfer.Link, cfg.NumPrefill)
		for i := range d.d2p[j] {
			spec := cluster.TransferLink(cfg.Topo, dAsg[j], pAsg[i])
			d.d2p[j][i] = xfer.NewLink(r.s, fmt.Sprintf("%sd%d-p%d", px, j, i), spec, xfer.DefaultEfficiency)
		}
	}
	if cfg.Elastic {
		// Role flips route KV between same-home-role instances, so the
		// mesh needs the two remaining quadrants.
		d.pFlipped = make([]bool, cfg.NumPrefill)
		d.dFlipped = make([]bool, cfg.NumDecode)
		d.migrating = make(map[uint64]*flipMigration)
		d.pp = make([][]*xfer.Link, cfg.NumPrefill)
		for i := range d.pp {
			d.pp[i] = make([]*xfer.Link, cfg.NumPrefill)
			for i2 := range d.pp[i] {
				if i2 == i {
					continue
				}
				spec := cluster.TransferLink(cfg.Topo, pAsg[i], pAsg[i2])
				d.pp[i][i2] = xfer.NewLink(r.s, fmt.Sprintf("%sp%d-p%d", px, i, i2), spec, xfer.DefaultEfficiency)
			}
		}
		d.dd = make([][]*xfer.Link, cfg.NumDecode)
		for j := range d.dd {
			d.dd[j] = make([]*xfer.Link, cfg.NumDecode)
			for j2 := range d.dd[j] {
				if j2 == j {
					continue
				}
				spec := cluster.TransferLink(cfg.Topo, dAsg[j], dAsg[j2])
				d.dd[j][j2] = xfer.NewLink(r.s, fmt.Sprintf("%sd%d-d%d", px, j, j2), spec, xfer.DefaultEfficiency)
			}
		}
	}

	for i, a := range pAsg {
		kv, err := kvcache.New(a.KVTokens, cfg.CPUSwapTokens, cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		if cfg.Prefix.Enabled {
			kv.EnablePrefixCache(cfg.Prefix.Tiered)
		}
		host := xfer.NewLink(r.s, fmt.Sprintf("%sprefill%d-host", px, i), cfg.Topo.HostPath(), xfer.DefaultEfficiency)
		hooks := r.recorderHooks()
		hooks.OnPrefillStart = func(q *engine.Req) {
			r.led.PrefillStart(q.W.ID, r.s.Now())
			if ph.onPrefillStart != nil {
				ph.onPrefillStart(q)
			}
		}
		hooks.OnPrefillDone = func(q *engine.Req) {
			if ph.transfer != nil && ph.transfer(q) {
				return
			}
			d.serialTransfer(q)
		}
		if ph.onComplete != nil || cfg.Elastic {
			base := hooks.OnComplete
			hooks.OnComplete = func(q *engine.Req) {
				base(q)
				if ph.onComplete != nil {
					ph.onComplete(q)
				}
				if cfg.Elastic {
					// A home prefill acting as decode retires streams here.
					delete(d.decodeAt, q.W.ID)
					delete(d.prefillAt, q.W.ID)
					d.retryTransfers()
				}
			}
		}
		if cfg.Elastic {
			hooks.OnIterationEnd = func() {
				d.retryTransfers()
			}
			hooks.OnEvicted = func(q *engine.Req) {
				// Acting decode out of swap space: recompute from scratch
				// on a current acting prefill.
				q.Assist = false
				delete(d.decodeAt, q.W.ID)
				d.prefillRR(q)
			}
		}
		ins, err := engine.NewInstance(r.s, engine.Config{
			Name: fmt.Sprintf("%sprefill-%d", px, i), CM: a.CM, KV: kv, HostLink: host, Tracer: cfg.Tracer,
			AllowPrefill: true, ChunkSize: cfg.ChunkSize,
			MaxPrefillTokens: cfg.MaxPrefillTokens, MaxDecodeBatch: cfg.MaxDecodeBatch,
		}, hooks)
		if err != nil {
			return nil, err
		}
		d.prefills = append(d.prefills, ins)
	}

	for j, a := range dAsg {
		j := j
		kv, err := kvcache.New(a.KVTokens, cfg.CPUSwapTokens, cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		if cfg.Prefix.Enabled {
			kv.EnablePrefixCache(cfg.Prefix.Tiered)
		}
		host := xfer.NewLink(r.s, fmt.Sprintf("%sdecode%d-host", px, j), cfg.Topo.HostPath(), xfer.DefaultEfficiency)
		hooks := r.recorderHooks()
		hooks.OnPrefillDone = func(q *engine.Req) {
			if cfg.Elastic && !q.Assist {
				// Main-stream prefill on a home decode acting as prefill:
				// the KV crosses to an acting decode like any other.
				if ph.transfer != nil && ph.transfer(q) {
					return
				}
				d.serialTransfer(q)
				return
			}
			// Only reachable for dispatched assists (WindServe): the first
			// token was produced here and the KV is already local.
			d.decodes[j].AdmitDecode(q)
		}
		hooks.OnIterationEnd = func() {
			d.retryTransfers()
			if ph.onDecodeIterEnd != nil {
				ph.onDecodeIterEnd(j)
			}
		}
		hooks.OnEvicted = func(q *engine.Req) {
			// Out of swap space: recompute from scratch on a prefill
			// instance.
			q.Assist = false
			delete(d.decodeAt, q.W.ID)
			d.prefillRR(q)
		}
		base := hooks.OnComplete
		hooks.OnComplete = func(q *engine.Req) {
			base(q)
			if ph.onComplete != nil {
				ph.onComplete(q)
			}
			delete(d.decodeAt, q.W.ID)
			delete(d.prefillAt, q.W.ID)
			d.retryTransfers()
		}
		ins, err := engine.NewInstance(r.s, engine.Config{
			Name: fmt.Sprintf("%sdecode-%d", px, j), CM: a.CM, KV: kv, HostLink: host, Tracer: cfg.Tracer,
			AllowPrefill: ph.decodeAllowPrefill, ChunkSize: cfg.ChunkSize,
			MaxPrefillTokens: cfg.MaxPrefillTokens, MaxDecodeBatch: cfg.MaxDecodeBatch,
			SBD: ph.decodeSBD,
		}, hooks)
		if err != nil {
			return nil, err
		}
		d.decodes = append(d.decodes, ins)
	}
	return d, nil
}

// --- Extended index spaces (elastic role flipping) ---------------------
//
// With Elastic off every helper collapses to the static layout: pSpace
// is len(prefills), dSpace is len(decodes), the masks are nil (so every
// home index acts its home role), and pdLink hits p2d — the exact wiring
// the static systems have always had.

// pSpace is the prefill-space size: home prefills, then home decodes.
func (d *pd) pSpace() int {
	if !d.cfg.Elastic {
		return len(d.prefills)
	}
	return len(d.prefills) + len(d.decodes)
}

// dSpace is the decode-space size: home decodes, then home prefills.
func (d *pd) dSpace() int {
	if !d.cfg.Elastic {
		return len(d.decodes)
	}
	return len(d.decodes) + len(d.prefills)
}

// pIns resolves a prefill-space index to its physical instance.
func (d *pd) pIns(i int) *engine.Instance {
	if i < len(d.prefills) {
		return d.prefills[i]
	}
	return d.decodes[i-len(d.prefills)]
}

// dIns resolves a decode-space index to its physical instance.
func (d *pd) dIns(j int) *engine.Instance {
	if j < len(d.decodes) {
		return d.decodes[j]
	}
	return d.prefills[j-len(d.decodes)]
}

// actingPrefill reports whether prefill-space index i currently serves
// the prefill role.
func (d *pd) actingPrefill(i int) bool {
	if i < len(d.prefills) {
		return d.pFlipped == nil || !d.pFlipped[i]
	}
	return d.dFlipped[i-len(d.prefills)]
}

// actingDecode reports whether decode-space index j currently serves the
// decode role.
func (d *pd) actingDecode(j int) bool {
	if j < len(d.decodes) {
		return d.dFlipped == nil || !d.dFlipped[j]
	}
	return d.pFlipped[j-len(d.decodes)]
}

// pdLink returns the link from prefill-space i to decode-space j; nil
// when both indices name the same physical instance (the transfer is
// local).
func (d *pd) pdLink(i, j int) *xfer.Link {
	np, nd := len(d.prefills), len(d.decodes)
	switch {
	case i < np && j < nd:
		return d.p2d[i][j]
	case i < np:
		return d.pp[i][j-nd]
	case j < nd:
		return d.dd[i-np][j]
	default:
		return d.d2p[i-np][j-nd]
	}
}

// ddLink returns the link between two decode-space indices (stream
// migration); nil on the same physical instance.
func (d *pd) ddLink(j, j2 int) *xfer.Link {
	nd := len(d.decodes)
	switch {
	case j < nd && j2 < nd:
		return d.dd[j][j2]
	case j < nd:
		return d.d2p[j][j2-nd]
	case j2 < nd:
		return d.p2d[j-nd][j2]
	default:
		return d.pp[j-nd][j2-nd]
	}
}

// prefillRR enqueues a request on the next live acting-prefill instance
// round-robin. With every instance down the request parks on the
// round-robin cursor's queue; a later Restore drains it.
func (d *pd) prefillRR(q *engine.Req) {
	n := d.pSpace()
	i := -1
	for k := 0; k < n; k++ {
		c := (d.rr.prefill + k) % n
		if d.pIns(c).Down() || !d.actingPrefill(c) {
			continue
		}
		i = c
		break
	}
	if i < 0 {
		// Every acting prefill is down: park on the first acting one (a
		// later Restore drains it) — with Elastic off that is exactly the
		// historical rr.prefill%n fallback, since every index acts.
		for k := 0; k < n; k++ {
			c := (d.rr.prefill + k) % n
			if d.actingPrefill(c) {
				i = c
				break
			}
		}
	}
	if i < 0 {
		i = d.rr.prefill % n
	}
	d.rr.prefill = i + 1
	d.prefillAt[q.W.ID] = i
	d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.pIns(i).Name(), "round-robin")
	d.pIns(i).EnqueuePrefill(q)
}

// prefillIdx returns the prefill-space index a request belongs to (0 if
// it was never routed — defensive).
func (d *pd) prefillIdx(q *engine.Req) int { return d.prefillAt[q.W.ID] }

// pickDecode returns the live acting-decode index with the most free KV
// tokens, or -1 when every decode instance is down.
func (d *pd) pickDecode() int {
	best := -1
	for j := 0; j < d.dSpace(); j++ {
		if d.dIns(j).Down() || !d.actingDecode(j) {
			continue
		}
		if best < 0 || d.dIns(j).FreeKVTokens() > d.dIns(best).FreeKVTokens() {
			best = j
		}
	}
	return best
}

// kvBytes is the payload size of a request's KV cache at a token count.
func (d *pd) kvBytes(tokens int) float64 {
	return float64(tokens) * d.cfg.Model.KVBytesPerToken()
}

// nominalP2DRate is the mean healthy p2d link throughput in bytes/second
// — the Profiler's transfer-rate warm start, so the very first dispatch
// already prices the KV copy a prefill-side placement implies.
func (d *pd) nominalP2DRate() float64 {
	var sum float64
	n := 0
	for i := range d.p2d {
		for j := range d.p2d[i] {
			sum += d.p2d[i][j].NominalRate()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// serialTransfer is DistServe's path: after prefill, allocate at a decode
// instance (or queue until blocks free), then occupy the link for the
// full payload; only then may decoding start. A new request queues behind
// anything already waiting — FCFS holds even when blocks freed since the
// last retry would let the newcomer allocate immediately.
func (d *pd) serialTransfer(q *engine.Req) {
	q.Phase = engine.PhaseTransferring
	if len(d.transferPending) > 0 || !d.tryStartTransfer(q) {
		d.transferPending = append(d.transferPending, q)
	}
}

func (d *pd) tryStartTransfer(q *engine.Req) bool {
	if q.Phase == engine.PhaseAborted {
		return true // cancelled while queued for transfer; just drop it
	}
	// Static round-robin for DistServe-style transfers, but skip decode
	// instances that are down, not acting the decode role, or unable to
	// hold the request right now.
	n := d.dSpace()
	i := d.prefillIdx(q)
	for k := 0; k < n; k++ {
		j := (d.rr.decode + k) % n
		if d.dIns(j).Down() || !d.actingDecode(j) {
			continue
		}
		if d.pIns(i) == d.dIns(j) {
			// The instance that prefilled this request flipped to decode
			// before the transfer started: the KV is already resident, so
			// the stream decodes in place with no copy at all.
			if !d.dIns(j).KV().Has(q.KVID()) {
				continue
			}
			d.rr.decode = (j + 1) % n
			d.decodeAt[q.W.ID] = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.dIns(j).Name(), "transfer-local")
			d.dIns(j).AdmitDecode(q)
			return true
		}
		if d.dIns(j).KV().Allocate(q.KVID(), q.Ctx()+1) == nil {
			d.rr.decode = (j + 1) % n
			d.decodeAt[q.W.ID] = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.dIns(j).Name(), "transfer-round-robin")
			start := d.r.s.Now()
			bytes := d.kvBytes(q.Ctx())
			lk := d.pdLink(i, j)
			lk.Transfer(bytes, func() {
				d.observeTransfer(bytes, start)
				if d.cfg.Tracer != nil {
					d.cfg.Tracer.Add("link "+lk.Name(), trace.KindKVTransfer, start, d.r.s.Now(),
						fmt.Sprintf("req%d %d tokens", q.W.ID, q.Ctx()))
				}
				d.pIns(i).ReleaseKV(q)
				if q.Phase == engine.PhaseAborted {
					d.releaseAt(d.dIns(j), q)
					return
				}
				if d.dIns(j).Down() || !d.dIns(j).KV().Has(q.KVID()) {
					// The target crashed while the payload was in flight — its
					// KV reset dropped the allocation — and may even have
					// restored already with empty blocks. Re-route through the
					// serial path to an instance holding a fresh allocation.
					delete(d.decodeAt, q.W.ID)
					d.serialTransfer(q)
					return
				}
				if d.cfg.Elastic && !d.actingDecode(j) {
					// The target flipped to prefill while the payload was in
					// flight; hand the stream to a current acting decode
					// instead of loading the fresh prefill role with it.
					d.releaseAt(d.dIns(j), q)
					delete(d.decodeAt, q.W.ID)
					d.serialTransfer(q)
					return
				}
				d.dIns(j).AdmitDecode(q)
			})
			return true
		}
	}
	return false
}

// observeTransfer feeds a completed p2d copy back to the hooks (Profiler
// transfer-rate learning).
func (d *pd) observeTransfer(bytes float64, start sim.Time) {
	if d.ph.onTransfer != nil {
		d.ph.onTransfer(bytes, d.r.s.Now().Sub(start))
	}
}

// releaseAt frees a request's KV on one instance if present, re-kicking it.
func (d *pd) releaseAt(ins *engine.Instance, q *engine.Req) {
	if ins.KV().Has(q.KVID()) {
		_ = ins.KV().Release(q.KVID())
		ins.Kick()
	}
}

// retryTransfers re-attempts queued transfers FCFS whenever decode blocks
// may have freed.
func (d *pd) retryTransfers() {
	for len(d.transferPending) > 0 {
		if !d.tryStartTransfer(d.transferPending[0]) {
			return
		}
		d.transferPending = d.transferPending[1:]
	}
}

// queueDepth is the admission-control signal: requests waiting for
// prefill anywhere, plus prefilled requests stuck waiting for decode KV.
func (d *pd) queueDepth() int {
	n := len(d.transferPending)
	for _, ins := range d.prefills {
		n += ins.NumQueued()
	}
	for _, ins := range d.decodes {
		n += ins.NumQueued()
	}
	return n
}

// abort scrubs a terminated request (Phase already PhaseAborted) from the
// cluster: both owning instances and the transfer queue. KV held on a
// link-transfer in flight is released by that transfer's own callback.
func (d *pd) abort(q *engine.Req) {
	if i, ok := d.prefillAt[q.W.ID]; ok {
		d.pIns(i).Abort(q)
		delete(d.prefillAt, q.W.ID)
	}
	if j, ok := d.decodeAt[q.W.ID]; ok {
		d.dIns(j).Abort(q)
		delete(d.decodeAt, q.W.ID)
	}
	if mig, ok := d.migrating[q.W.ID]; ok && mig.q == q {
		// Mid-migration: KV may be held at both ends; the in-flight
		// transfer callback sees the registry entry gone and bails.
		delete(d.migrating, q.W.ID)
		d.releaseAt(d.dIns(mig.src), q)
		d.releaseAt(d.dIns(mig.dst), q)
	}
	for i, p := range d.transferPending {
		if p == q {
			d.transferPending = append(d.transferPending[:i], d.transferPending[i+1:]...)
			break
		}
	}
}

// degradeLinks scales every cross-instance link to frac of nominal
// bandwidth (1 restores). Host swap links are instance-local PCIe and stay
// nominal.
func (d *pd) degradeLinks(frac float64) {
	for i := range d.p2d {
		for j := range d.p2d[i] {
			d.p2d[i][j].SetDegradation(frac)
		}
	}
	for j := range d.d2p {
		for i := range d.d2p[j] {
			d.d2p[j][i].SetDegradation(frac)
		}
	}
	for _, row := range d.pp {
		for _, lk := range row {
			if lk != nil {
				lk.SetDegradation(frac)
			}
		}
	}
	for _, row := range d.dd {
		for _, lk := range row {
			if lk != nil {
				lk.SetDegradation(frac)
			}
		}
	}
}

// crashPrefillDefault is DistServe's prefill-crash recovery: every orphan
// (queued or mid-prefill on the dead instance, or prefilled but waiting on
// its now-lost KV for transfer) re-prefills from scratch on a survivor.
func (d *pd) crashPrefillDefault(i int) {
	orphans := d.prefills[i].Crash()
	keep := d.transferPending[:0]
	for _, q := range d.transferPending {
		if d.prefillAt[q.W.ID] == i {
			orphans = append(orphans, q)
		} else {
			keep = append(keep, q)
		}
	}
	d.transferPending = keep
	for _, q := range orphans {
		if q.Phase == engine.PhaseDone || q.Phase == engine.PhaseAborted {
			continue
		}
		delete(d.prefillAt, q.W.ID)
		delete(d.decodeAt, q.W.ID)
		q.PrefillDone = 0
		q.PrefixHit = 0
		d.r.markRecovered(q)
		d.prefillRR(q)
	}
}

// crashDecodeDefault is DistServe's decode-crash recovery: orphans lose
// their KV and re-enter the system as fresh prefills (no backups to
// restore from).
func (d *pd) crashDecodeDefault(j int) {
	for _, q := range d.decodes[j].Crash() {
		if q.Phase == engine.PhaseDone || q.Phase == engine.PhaseAborted {
			continue
		}
		delete(d.decodeAt, q.W.ID)
		delete(d.prefillAt, q.W.ID)
		q.PrefillDone = 0
		q.PrefixHit = 0
		q.Generated = 0 // generated-token KV died with the instance
		q.Assist = false
		d.r.markRecovered(q)
		d.prefillRR(q)
	}
}

// finalize fills the pd-specific parts of a result, aggregating across
// instances.
func (d *pd) finalize(res *Result) {
	var pStats, dStats kvcache.Stats
	var pcu, pbu, dcu, dbu, stall float64
	for _, ins := range d.prefills {
		addStats(&pStats, ins.KV().Stats())
		c, b := utilization(ins, res.Elapsed)
		pcu += c
		pbu += b
		stall += ins.SwapStall.Seconds()
	}
	for _, ins := range d.decodes {
		addStats(&dStats, ins.KV().Stats())
		c, b := utilization(ins, res.Elapsed)
		dcu += c
		dbu += b
		stall += ins.SwapStall.Seconds()
	}
	res.PrefillKV, res.DecodeKV = pStats, dStats
	for _, ins := range d.prefills {
		res.LiveKVBlocks += ins.KV().UsedBlocks()
	}
	for _, ins := range d.decodes {
		res.LiveKVBlocks += ins.KV().UsedBlocks()
	}
	res.PrefillComputeUtil = pcu / float64(len(d.prefills))
	res.PrefillBWUtil = pbu / float64(len(d.prefills))
	res.DecodeComputeUtil = dcu / float64(len(d.decodes))
	res.DecodeBWUtil = dbu / float64(len(d.decodes))
	res.SwapStallSec = stall
	for i := range d.p2d {
		for j := range d.p2d[i] {
			res.TransferGB += d.p2d[i][j].BytesMoved / 1e9
		}
	}
	for j := range d.d2p {
		for i := range d.d2p[j] {
			gb := d.d2p[j][i].BytesMoved / 1e9
			res.TransferGB += gb
			res.MigrationGB += gb
		}
	}
	for _, row := range d.pp {
		for _, lk := range row {
			if lk != nil {
				res.TransferGB += lk.BytesMoved / 1e9
			}
		}
	}
	for _, row := range d.dd {
		for _, lk := range row {
			if lk != nil {
				gb := lk.BytesMoved / 1e9
				res.TransferGB += gb
				res.MigrationGB += gb
			}
		}
	}
	res.AsyncXfers = d.asyncXfers
}

func addStats(dst *kvcache.Stats, s kvcache.Stats) { dst.Accumulate(s) }
