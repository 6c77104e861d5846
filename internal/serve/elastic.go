package serve

// Elastic role flipping: the drain/migrate protocol behind Replica.Flip.
// The decision to flip lives in the fleet's RoleController; this file
// only executes a flip against the shared prefill/decode cluster —
// re-routing an instance's untouched prefill queue when it turns into a
// decode, and migrating its running decode batch over the link mesh when
// it turns into a prefill. Everything here is gated on pdHooks.elastic;
// with it off none of this code is reachable and the static systems stay
// byte-identical.

import (
	"fmt"
	"sort"

	"windserve/internal/engine"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/xfer"
)

// FlipResult reports what one role flip did.
type FlipResult struct {
	// OK is false when no instance could flip (role floor, all down, or
	// elastic off).
	OK bool
	// Instance names the flipped engine.
	Instance string
	// ToDecode is the direction that was executed.
	ToDecode bool
	// Requeued counts untouched queued prefills re-routed to the
	// remaining acting prefills (flip-to-decode only).
	Requeued int
	// Migrating counts decode streams whose KV started migrating to
	// other acting decodes (flip-to-prefill only). Streams that could
	// not be placed finish on the flipped instance.
	Migrating int
}

// flip converts one instance to the other role and starts its drain:
// toDecode turns an acting prefill into a decode, re-routing its
// untouched prefill queue; otherwise an acting decode turns prefill and
// migrates its running batch to the remaining acting decodes. Selection
// is deterministic: instances acting against their home role flip back
// first (restoring the static layout before bending it further), then
// the least-loaded candidate of the shrinking role is taken, ties to the
// earliest in scan order. The flip never drops the live acting count of
// the shrinking role below one.
func (d *pd) flip(toDecode bool) FlipResult {
	if !d.ph.elastic {
		return FlipResult{}
	}
	np := len(d.prefills)
	away := func(a int) bool { return d.actsDecode[a] != (a >= np) }
	load := func(a int) int {
		if toDecode {
			return d.ins[a].QueuedPrefillTokens()
		}
		return d.ins[a].NumRunning()
	}
	better := func(a, b int) bool {
		if away(a) != away(b) {
			return away(a)
		}
		return load(a) < load(b)
	}
	pick, acting := -1, 0
	for k := range d.ins {
		a := k // acting prefills are scanned in physical order,
		if !toDecode {
			a = d.decodeOrder(k) // acting decodes in decode order
		}
		if d.actsDecode[a] == toDecode || d.ins[a].Down() {
			continue
		}
		acting++
		if pick < 0 || better(a, pick) {
			pick = a
		}
	}
	if pick < 0 || acting <= 1 {
		return FlipResult{}
	}
	ins := d.ins[pick]
	d.actsDecode[pick] = toDecode
	if !toDecode {
		// Sticky enable: once an instance has prefilled anything, the flag
		// never turns off again, so a later flip back to decode cannot
		// strand a mid-chunk prefill.
		ins.SetAllowPrefill(true)
		return FlipResult{OK: true, Instance: ins.Name(), Migrating: d.migrateRunning(pick)}
	}
	// AllowPrefill stays on (sticky): requests mid-chunk or holding KV
	// here must finish their prefill; the acting role alone keeps new
	// work away.
	requeued := 0
	for _, q := range ins.DrainPrefillQueue() {
		if q.Phase == engine.PhaseAborted {
			continue
		}
		d.prefillRR(q)
		requeued++
	}
	return FlipResult{OK: true, Instance: ins.Name(), ToDecode: true, Requeued: requeued}
}

// migrateRunning drains src's running batch: each stream's KV crosses
// the mesh to the acting decode with the most free KV able to hold it
// (batch order, deterministic). Streams with no viable destination keep
// decoding on src until they finish — a graceful drain, never a drop.
func (d *pd) migrateRunning(src int) int {
	ins := d.ins[src]
	batch := append([]*engine.Req(nil), ins.Running()...)
	migrated := 0
	for _, q := range batch {
		if q.Phase != engine.PhaseDecoding || q.Migrating {
			continue
		}
		dst := d.pickMigrationDst(src, q)
		if dst < 0 {
			continue
		}
		ins.RemoveRunning(q)
		q.Migrating = true
		q.Phase = engine.PhaseDraining
		d.migrating[q.W.ID] = &flipMigration{q: q, src: src, dst: dst}
		bytes := d.kvBytes(q.Ctx())
		start := d.r.s.Now()
		lk := d.link[src][dst]
		qq, dt := q, dst
		lk.Transfer(bytes, func() { d.finishMigration(qq, src, dt, start, lk) })
		migrated++
	}
	ins.Kick()
	return migrated
}

// pickMigrationDst chooses the migration destination for one stream:
// acting decodes other than src, most free KV first (ties keep decode
// order), first one whose manager accepts the allocation.
func (d *pd) pickMigrationDst(src int, q *engine.Req) int {
	var cands []int
	for k := range d.ins {
		a := d.decodeOrder(k)
		if a == src || !d.actsDecode[a] || d.ins[a].Down() {
			continue
		}
		cands = append(cands, a)
	}
	sort.SliceStable(cands, func(x, y int) bool {
		return d.ins[cands[x]].FreeKVTokens() > d.ins[cands[y]].FreeKVTokens()
	})
	for _, a := range cands {
		if d.ins[a].KV().Allocate(q.KVID(), q.Ctx()+1) == nil {
			return a
		}
	}
	return -1
}

// finishMigration lands one migrated stream at its destination. The
// registry's pointer identity check makes the callback idempotent
// against everything that can happen while the payload is in flight: an
// abort or replica crash scrubbed the entry (and possibly re-admitted
// the same request ID), so a stale callback must do nothing.
func (d *pd) finishMigration(q *engine.Req, src, dst int, start sim.Time, lk *xfer.Link) {
	mig, ok := d.migrating[q.W.ID]
	if !ok || mig.q != q {
		return
	}
	delete(d.migrating, q.W.ID)
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Add("link "+lk.Name(), trace.KindKVTransfer, start, d.r.s.Now(),
			fmt.Sprintf("req%d migrate %d tokens", q.W.ID, q.Ctx()))
	}
	srcIns, dstIns := d.ins[src], d.ins[dst]
	if q.Phase == engine.PhaseAborted {
		d.releaseAt(srcIns, q)
		d.releaseAt(dstIns, q)
		return
	}
	if dstIns.Down() || !dstIns.KV().Has(q.KVID()) {
		// Destination crashed mid-flight. The source still holds the
		// authoritative KV: resume there (even though it now acts as
		// prefill — a graceful drain beats losing the stream). If the
		// source died too, recover as a fresh prefill.
		if !srcIns.Down() && srcIns.KV().Has(q.KVID()) {
			q.Migrating = false
			srcIns.InsertRunning(q)
			return
		}
		delete(d.decodeAt, q.W.ID)
		delete(d.prefillAt, q.W.ID)
		q.Restart()
		d.r.markRecovered(q)
		d.prefillRR(q)
		return
	}
	d.releaseAt(srcIns, q)
	d.decodeAt[q.W.ID] = dst
	q.Migrating = false
	dstIns.InsertRunning(q)
}

// loadSignals is the replica's elastic pressure snapshot: prompt-token
// backlog across acting prefills, stream count and total context across
// acting decodes, and the acting role counts. Plain integers so the
// fleet wire can delta-suppress reports.
func (d *pd) loadSignals() (qTokens, running, sumCtx, actP, actD int) {
	for a, ins := range d.ins {
		if !d.actsDecode[a] {
			actP++
			qTokens += ins.QueuedPrefillTokens()
			continue
		}
		actD++
		running += ins.NumRunning()
		for _, q := range ins.Running() {
			sumCtx += q.Ctx()
		}
	}
	return qTokens, running, sumCtx, actP, actD
}
