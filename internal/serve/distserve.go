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
//
// The cluster is one physical instance table: ins holds the home
// prefills first, then the home decodes, and prefills/decodes are those
// two sub-slices, indexed by home position. Every other index pd keeps
// (links, acting roles, placement maps, flip migrations) is physical.
type pd struct {
	r                 *runner
	cfg               Config
	ph                pdHooks
	ins               []*engine.Instance
	prefills, decodes []*engine.Instance
	// link[a][b] carries KV from instance a to instance b: post-prefill
	// transfers, WindServe's migrations and backups, and flip migrations.
	// It is nil on the diagonal, and between two instances of the same
	// home role unless ph.elastic — only role flips route KV that way.
	link [][]*xfer.Link
	// actsDecode[a] reports whether instance a currently serves the
	// decode role. It starts as the home role; only flips change it.
	actsDecode []bool

	// migrating tracks decode streams mid-flight between acting decodes
	// (a role flip draining its batch). The pointer identity check
	// against the stored request guards the transfer callback: a crash
	// or abort that scrubbed and re-admitted the same ID leaves a stale
	// callback that must not touch the new incarnation.
	migrating map[uint64]*flipMigration

	// prefillAt and decodeAt remember each in-flight request's instances,
	// so transfers pick the right link and releases hit the right manager.
	prefillAt map[uint64]int
	decodeAt  map[uint64]int

	// transferPending are prefilled requests waiting for decode KV.
	transferPending []*engine.Req

	// rr.prefill is a physical cursor; rr.decode counts in decode order.
	rr struct{ prefill, decode int }

	// stats
	asyncXfers int
}

// flipMigration is one decode stream's flight record between acting decodes.
type flipMigration struct {
	q        *engine.Req
	src, dst int
}

// pdHooks lets WindServe inject policy into the shared wiring, and a
// fleet replica name and wire its cluster.
type pdHooks struct {
	// prefix prepends every instance and link name — fleet replicas use
	// "r<i>/" so names stay unique across the fleet.
	prefix string
	// elastic wires the cluster for runtime role flipping: links between
	// same-home-role instances and the drain/migrate protocol behind
	// Replica.Flip. The flip decisions come from the fleet.
	elastic bool
	// onPrefillStart fires at a home prefill instance (async transfers).
	onPrefillStart func(q *engine.Req)
	// transfer overrides the post-prefill transfer path. Return true if
	// handled; false falls back to the serial DistServe path.
	transfer func(q *engine.Req) bool
	// onDecodeIterEnd fires after each pass of home decode instance j.
	onDecodeIterEnd func(j int)
	// onComplete observes completions on any instance (backup cleanup).
	onComplete func(q *engine.Req)
	// onTransfer observes every completed prefill→decode KV copy
	// (payload bytes and wall time including link queuing) — the
	// Profiler's transfer-rate feedback.
	onTransfer func(bytes float64, elapsed sim.Duration)
	// crashPrefill/crashDecode override orphan recovery after a crash of
	// the given home instance (WindServe's backup-aware path). Nil uses
	// the pd-default re-prefill-from-scratch recovery.
	crashPrefill func(i int)
	crashDecode  func(j int)
	// decodeSBD enables the second stream on decode instances.
	decodeSBD bool
	// decodeAllowPrefill lets decode instances run prefill in their main
	// stream (WindServe-no-split ablation).
	decodeAllowPrefill bool
}

func newPD(r *runner, cfg Config, ph pdHooks) (*pd, error) {
	np, n := cfg.NumPrefill, cfg.NumPrefill+cfg.NumDecode
	specs := make([]cluster.InstanceSpec, n)
	for a := range specs {
		specs[a] = cluster.InstanceSpec{Role: cluster.RolePrefill, Place: cfg.PrefillPlace}
		if a >= np {
			specs[a] = cluster.InstanceSpec{Role: cluster.RoleDecode, Place: cfg.DecodePlace}
		}
	}
	asg, err := cluster.Plan(cfg.Topo, cfg.Model, cfg.Params, reserveFrac, specs...)
	if err != nil {
		return nil, err
	}
	d := &pd{
		r: r, cfg: cfg, ph: ph,
		link:       make([][]*xfer.Link, n),
		actsDecode: make([]bool, n),
		migrating:  make(map[uint64]*flipMigration),
		prefillAt:  make(map[uint64]int),
		decodeAt:   make(map[uint64]int),
	}
	short := func(a int) string { // link-name form of a home index
		if a < np {
			return fmt.Sprintf("p%d", a)
		}
		return fmt.Sprintf("d%d", a-np)
	}
	for a := range asg {
		d.actsDecode[a] = a >= np
		d.link[a] = make([]*xfer.Link, n)
		for b := range asg {
			if a == b || (!ph.elastic && (a < np) == (b < np)) {
				continue
			}
			spec := cluster.TransferLink(cfg.Topo, asg[a], asg[b])
			d.link[a][b] = xfer.NewLink(r.s, ph.prefix+short(a)+"-"+short(b), spec, xfer.DefaultEfficiency)
		}
		ins, err := d.newInstance(a, asg[a])
		if err != nil {
			return nil, err
		}
		d.ins = append(d.ins, ins)
	}
	d.prefills, d.decodes = d.ins[:np], d.ins[np:]
	return d, nil
}

// newInstance builds physical instance a: its KV manager, host swap link,
// engine and hooks.
func (d *pd) newInstance(a int, as cluster.Assignment) (*engine.Instance, error) {
	r, cfg, ph := d.r, d.cfg, d.ph
	homeDecode := a >= cfg.NumPrefill
	role, idx := "prefill", a
	if homeDecode {
		role, idx = "decode", a-cfg.NumPrefill
	}
	// Home decodes, and with elastic wiring every instance, may hold decode
	// streams: they retry queued transfers as blocks free and send
	// evicted streams back through prefill routing.
	canDecode := homeDecode || ph.elastic
	kv, err := kvcache.New(as.KVTokens, cpuSwapTokens, kvcache.DefaultBlockSize)
	if err != nil {
		return nil, err
	}
	if cfg.Prefix.Enabled {
		kv.EnablePrefixCache(cfg.Prefix.Tiered)
	}
	host := xfer.NewLink(r.s, fmt.Sprintf("%s%s%d-host", ph.prefix, role, idx), cfg.Topo.HostPath(), xfer.DefaultEfficiency)
	hooks := r.recorderHooks()
	if ph.onPrefillStart != nil && !homeDecode {
		hooks.OnPrefillStart = func(q *engine.Req) {
			r.led.PrefillStart(q.W.ID, r.s.Now())
			ph.onPrefillStart(q)
		}
	}
	hooks.OnPrefillDone = func(q *engine.Req) {
		if q.Assist {
			// A dispatched assist (WindServe): the first token was produced
			// here and the KV is already local.
			d.ins[a].AdmitDecode(q)
			return
		}
		if ph.transfer != nil && ph.transfer(q) {
			return
		}
		d.serialTransfer(q)
	}
	base := hooks.OnComplete
	hooks.OnComplete = func(q *engine.Req) {
		base(q)
		if ph.onComplete != nil {
			ph.onComplete(q)
		}
		delete(d.decodeAt, q.W.ID)
		delete(d.prefillAt, q.W.ID)
		if canDecode {
			d.retryTransfers()
		}
	}
	if canDecode {
		hooks.OnIterationEnd = func() {
			d.retryTransfers()
			if ph.onDecodeIterEnd != nil { // WindServe, never elastic: a home decode
				ph.onDecodeIterEnd(idx)
			}
		}
		hooks.OnEvicted = func(q *engine.Req) {
			// Out of swap space: recompute from scratch on an acting prefill.
			q.Assist = false
			delete(d.decodeAt, q.W.ID)
			d.prefillRR(q)
		}
	}
	return engine.NewInstance(r.s, engine.Config{
		Name: fmt.Sprintf("%s%s-%d", ph.prefix, role, idx), CM: as.CM, KV: kv, HostLink: host, Tracer: cfg.Tracer,
		AllowPrefill: !homeDecode || ph.decodeAllowPrefill, ChunkSize: cfg.ChunkSize,
		MaxPrefillTokens: cfg.MaxPrefillTokens, SBD: homeDecode && ph.decodeSBD,
	}, hooks)
}

// decodeOrder maps position k of a decode-side scan to its physical
// index: home decodes first, then home prefills (acting decode only
// after a flip). Every decode-side pick walks this order.
func (d *pd) decodeOrder(k int) int { return (len(d.prefills) + k) % len(d.ins) }

// prefillRR enqueues a request on the next live acting-prefill instance
// round-robin. With every acting prefill down the request parks on the
// first one in cursor order; a later Restore drains it.
func (d *pd) prefillRR(q *engine.Req) {
	n := len(d.ins)
	i, park := -1, -1
	for k := 0; k < n && i < 0; k++ {
		c := (d.rr.prefill + k) % n
		if d.actsDecode[c] {
			continue
		}
		if park < 0 {
			park = c
		}
		if !d.ins[c].Down() {
			i = c
		}
	}
	if i < 0 {
		i = park // a flip never leaves the prefill role empty
	}
	d.rr.prefill = i + 1
	d.prefillAt[q.W.ID] = i
	d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.ins[i].Name(), "round-robin")
	d.ins[i].EnqueuePrefill(q)
}

// prefillIdx returns the instance a request was prefilled on (0 if it was
// never routed — defensive).
func (d *pd) prefillIdx(q *engine.Req) int { return d.prefillAt[q.W.ID] }

// pickDecode returns the live acting decode with the most free KV tokens
// (ties to the earliest in decode order), or -1 when every one is down.
func (d *pd) pickDecode() int {
	best := -1
	for k := range d.ins {
		a := d.decodeOrder(k)
		if !d.actsDecode[a] || d.ins[a].Down() {
			continue
		}
		if best < 0 || d.ins[a].FreeKVTokens() > d.ins[best].FreeKVTokens() {
			best = a
		}
	}
	return best
}

// kvBytes is the payload size of a request's KV cache at a token count.
func (d *pd) kvBytes(tokens int) float64 {
	return float64(tokens) * d.cfg.Model.KVBytesPerToken()
}

// nominalP2DRate is the mean healthy prefill→decode link throughput in
// bytes/second — the Profiler's transfer-rate warm start, so the very
// first dispatch already prices the KV copy a prefill-side placement
// implies.
func (d *pd) nominalP2DRate() float64 {
	var sum float64
	n := 0
	for i := range d.prefills {
		for _, lk := range d.link[i][len(d.prefills):] {
			sum += lk.NominalRate()
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
	n := len(d.ins)
	i := d.prefillIdx(q)
	for k := 0; k < n; k++ {
		pos := (d.rr.decode + k) % n
		j := d.decodeOrder(pos)
		dst := d.ins[j]
		if !d.actsDecode[j] || dst.Down() {
			continue
		}
		if i == j {
			// The instance that prefilled this request flipped to decode
			// before the transfer started: the KV is already resident, so
			// the stream decodes in place with no copy at all.
			if !dst.KV().Has(q.KVID()) {
				continue
			}
			d.rr.decode = (pos + 1) % n
			d.decodeAt[q.W.ID] = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, dst.Name(), "transfer-local")
			dst.AdmitDecode(q)
			return true
		}
		if dst.KV().Allocate(q.KVID(), q.Ctx()+1) == nil {
			d.rr.decode = (pos + 1) % n
			d.decodeAt[q.W.ID] = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, dst.Name(), "transfer-round-robin")
			start := d.r.s.Now()
			bytes := d.kvBytes(q.Ctx())
			lk := d.link[i][j]
			lk.Transfer(bytes, func() {
				d.observeTransfer(bytes, start)
				if d.cfg.Tracer != nil {
					d.cfg.Tracer.Add("link "+lk.Name(), trace.KindKVTransfer, start, d.r.s.Now(),
						fmt.Sprintf("req%d %d tokens", q.W.ID, q.Ctx()))
				}
				d.ins[i].ReleaseKV(q)
				if q.Phase == engine.PhaseAborted {
					d.releaseAt(dst, q)
					return
				}
				if dst.Down() || !dst.KV().Has(q.KVID()) {
					// The target crashed while the payload was in flight — its
					// KV reset dropped the allocation — and may even have
					// restored already with empty blocks. Re-route through the
					// serial path to an instance holding a fresh allocation.
					delete(d.decodeAt, q.W.ID)
					d.serialTransfer(q)
					return
				}
				if !d.actsDecode[j] {
					// The target flipped to prefill while the payload was in
					// flight; hand the stream to a current acting decode
					// instead of loading the fresh prefill role with it.
					d.releaseAt(dst, q)
					delete(d.decodeAt, q.W.ID)
					d.serialTransfer(q)
					return
				}
				dst.AdmitDecode(q)
			})
			return true
		}
	}
	return false
}

// observeTransfer feeds a completed prefill→decode copy back to the hooks
// (Profiler transfer-rate learning).
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
		d.ins[i].Abort(q)
		delete(d.prefillAt, q.W.ID)
	}
	if j, ok := d.decodeAt[q.W.ID]; ok {
		d.ins[j].Abort(q)
		delete(d.decodeAt, q.W.ID)
	}
	if mig, ok := d.migrating[q.W.ID]; ok && mig.q == q {
		// Mid-migration: KV may be held at both ends; the in-flight
		// transfer callback sees the registry entry gone and bails.
		delete(d.migrating, q.W.ID)
		d.releaseAt(d.ins[mig.src], q)
		d.releaseAt(d.ins[mig.dst], q)
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
	for _, row := range d.link {
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
		q.Restart()
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
		q.Restart() // generated-token KV died with the instance
		d.r.markRecovered(q)
		d.prefillRR(q)
	}
}

// finalize fills the pd-specific parts of a result, aggregating across
// instances by home role.
func (d *pd) finalize(res *Result) {
	np := len(d.prefills)
	var pcu, pbu, dcu, dbu, stall float64
	for a, ins := range d.ins {
		c, b := utilization(ins, res.Elapsed)
		if a < np {
			res.PrefillKV.Accumulate(ins.KV().Stats())
			pcu += c
			pbu += b
		} else {
			res.DecodeKV.Accumulate(ins.KV().Stats())
			dcu += c
			dbu += b
		}
		stall += ins.SwapStall.Seconds()
		res.LiveKVBlocks += ins.KV().UsedBlocks()
	}
	res.PrefillComputeUtil = pcu / float64(np)
	res.PrefillBWUtil = pbu / float64(np)
	res.DecodeComputeUtil = dcu / float64(len(d.decodes))
	res.DecodeBWUtil = dbu / float64(len(d.decodes))
	res.SwapStallSec = stall
	for a, row := range d.link {
		for _, lk := range row {
			if lk == nil {
				continue
			}
			gb := lk.BytesMoved / 1e9
			res.TransferGB += gb
			if a >= np { // out of a home decode: migrations and backups
				res.MigrationGB += gb
			}
		}
	}
	res.AsyncXfers = d.asyncXfers
}
