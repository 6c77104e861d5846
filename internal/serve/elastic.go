package serve

// Elastic role flipping: the drain/migrate protocol behind Replica.Flip.
// The decision to flip lives in the fleet's RoleController; this file
// only executes a flip against the shared prefill/decode cluster —
// re-routing an instance's untouched prefill queue when it turns into a
// decode, and migrating its running decode batch over the link mesh when
// it turns into a prefill. Everything here is gated on Config.Elastic;
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

// flip converts one instance to the other role and starts its drain.
// Selection is deterministic: instances already flipped away from their
// home role are unflipped first (restoring the static layout before
// bending it further), then the least-loaded home instance of the
// shrinking role is taken, ties to the lowest index. The flip never
// drops the acting count of the shrinking role to zero.
func (d *pd) flip(toDecode bool) FlipResult {
	if !d.cfg.Elastic {
		return FlipResult{}
	}
	if toDecode {
		return d.flipToDecode()
	}
	return d.flipToPrefill()
}

// flipToDecode converts an acting prefill into a decode instance.
func (d *pd) flipToDecode() FlipResult {
	np := len(d.prefills)
	pick, acting := -1, 0
	better := func(a, b int) bool { // prefill-space candidates
		fa, fb := a >= np, b >= np // flipped-home-decode candidates first
		if fa != fb {
			return fa
		}
		ta, tb := d.pIns(a).QueuedPrefillTokens(), d.pIns(b).QueuedPrefillTokens()
		if ta != tb {
			return ta < tb
		}
		return a < b
	}
	for i := 0; i < d.pSpace(); i++ {
		if !d.actingPrefill(i) || d.pIns(i).Down() {
			continue
		}
		acting++
		if pick < 0 || better(i, pick) {
			pick = i
		}
	}
	if pick < 0 || acting <= 1 {
		return FlipResult{}
	}
	ins := d.pIns(pick)
	if pick < np {
		d.pFlipped[pick] = true
	} else {
		d.dFlipped[pick-np] = false
	}
	// AllowPrefill stays on (sticky): requests mid-chunk or holding KV
	// here must finish their prefill; the role masks alone keep new work
	// away.
	requeued := 0
	for _, q := range ins.DrainPrefillQueue() {
		if q.Phase == engine.PhaseAborted {
			continue
		}
		d.prefillRR(q)
		requeued++
	}
	d.flips++
	return FlipResult{OK: true, Instance: ins.Name(), ToDecode: true, Requeued: requeued}
}

// flipToPrefill converts an acting decode into a prefill instance and
// migrates its running batch to the remaining acting decodes.
func (d *pd) flipToPrefill() FlipResult {
	nd := len(d.decodes)
	pick, acting := -1, 0
	better := func(a, b int) bool { // decode-space candidates
		fa, fb := a >= nd, b >= nd // flipped-home-prefill candidates first
		if fa != fb {
			return fa
		}
		ra, rb := d.dIns(a).NumRunning(), d.dIns(b).NumRunning()
		if ra != rb {
			return ra < rb
		}
		return a < b
	}
	for j := 0; j < d.dSpace(); j++ {
		if !d.actingDecode(j) || d.dIns(j).Down() {
			continue
		}
		acting++
		if pick < 0 || better(j, pick) {
			pick = j
		}
	}
	if pick < 0 || acting <= 1 {
		return FlipResult{}
	}
	ins := d.dIns(pick)
	if pick < nd {
		d.dFlipped[pick] = true
		// Sticky enable: once a home decode has prefilled anything, the
		// flag never turns off again, so a later flip back to decode
		// cannot strand a mid-chunk prefill.
		ins.SetAllowPrefill(true)
	} else {
		d.pFlipped[pick-nd] = false
	}
	migrated := d.migrateRunning(pick)
	d.flips++
	return FlipResult{OK: true, Instance: ins.Name(), Migrating: migrated}
}

// migrateRunning drains src's running batch: each stream's KV crosses
// the mesh to the acting decode with the most free KV able to hold it
// (batch order, deterministic). Streams with no viable destination keep
// decoding on src until they finish — a graceful drain, never a drop.
func (d *pd) migrateRunning(src int) int {
	ins := d.dIns(src)
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
		lk := d.ddLink(src, dst)
		qq, dt := q, dst
		lk.Transfer(bytes, func() { d.finishMigration(qq, src, dt, start, lk) })
		migrated++
	}
	ins.Kick()
	return migrated
}

// pickMigrationDst chooses the migration destination for one stream:
// acting decodes other than src, most free KV first (ties to the lowest
// index), first one whose manager accepts the allocation.
func (d *pd) pickMigrationDst(src int, q *engine.Req) int {
	var cands []int
	for j := 0; j < d.dSpace(); j++ {
		if j == src || !d.actingDecode(j) || d.dIns(j).Down() {
			continue
		}
		cands = append(cands, j)
	}
	sort.Slice(cands, func(a, b int) bool {
		fa, fb := d.dIns(cands[a]).FreeKVTokens(), d.dIns(cands[b]).FreeKVTokens()
		if fa != fb {
			return fa > fb
		}
		return cands[a] < cands[b]
	})
	for _, j := range cands {
		if d.dIns(j).KV().Allocate(q.KVID(), q.Ctx()+1) == nil {
			return j
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
	srcIns, dstIns := d.dIns(src), d.dIns(dst)
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
		q.PrefillDone = 0
		q.PrefixHit = 0
		q.Generated = 0
		q.Migrating = false
		q.Assist = false
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
	for i := 0; i < d.pSpace(); i++ {
		if !d.actingPrefill(i) {
			continue
		}
		actP++
		qTokens += d.pIns(i).QueuedPrefillTokens()
	}
	for j := 0; j < d.dSpace(); j++ {
		if !d.actingDecode(j) {
			continue
		}
		actD++
		running += d.dIns(j).NumRunning()
		for _, q := range d.dIns(j).Running() {
			sumCtx += q.Ctx()
		}
	}
	return qTokens, running, sumCtx, actP, actD
}
