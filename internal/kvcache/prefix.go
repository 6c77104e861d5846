// Cross-request prefix caching with a tiered GPU→host backing store.
//
// Real systems (vLLM, SGLang, BLIS) key KV blocks by a rolling content
// hash of the tokens they hold, so any two requests whose prompts share a
// token-for-token prefix share the underlying blocks. The simulator does
// not materialize token values — requests carry lengths — so the hash
// chain is modeled directly by its structure: a block's identity is
// (PrefixGroup, block index). Two requests in the same group with
// PrefixTokens ≥ k·blockSize share their first k blocks, exactly the
// sharing pattern a content hash would discover, and the chain property
// (block i's hash covers all earlier tokens) maps to the rule that a hit
// is the longest fully-cached *run* of blocks starting at index 0.
//
// The pool holds one chain per group, its blocks stored by value and
// indexed by block number: [0, nGPU) on the GPU, [nGPU, len) demoted to
// the host tier. Chains never have holes, so a hit is min(len, wanted).
// Blocks are refcounted by the resident requests that acquired them, and
// only refs==0 blocks are eviction candidates. Under GPU pressure the
// reclaim order is
//
//	backup copies → idle prefix blocks (LRU) → the engine's own
//	preemption machinery (swap-out / recompute)
//
// so redundant state yields before useful state, and cached prefixes
// before any running request is disturbed. LRU needs no scan, because
// along every chain lastUse strictly decreases (an acquire restamps its
// run [0, n) tail-first, newer than every other block) and refs never
// increases (every holder references a run [0, n)). A chain's least
// recently used idle block on a tier is therefore its last block there,
// if that one is idle; a min-heap of chains per tier keyed by that
// candidate yields the global LRU victim in O(log chains).
//
// In tiered mode an evicted-but-warm block is demoted to host memory
// instead of dropped (an asynchronous write-back off the critical path,
// so demotion is untimed). A later hit on a demoted block promotes it
// back to GPU and reports the restored token span, which the engine
// charges as a PCIe transfer over its host xfer.Link — the restore, which
// IS on the critical path, is timed. Dropping a GPU block drops the idle
// demoted suffix behind it too, which keeps chains free of holes.
package kvcache

import (
	"container/heap"
	"sort"
)

// Tiers, indexing Manager.lru and the per-chain heap fields.
const (
	gpuTier = iota
	hostTier
)

// block is one refcounted shared block; its tier follows from its index.
type block struct {
	refs    int
	lastUse uint64 // monotone recency stamp; unique per block
}

// chain is the cached run of one prefix group.
type chain struct {
	group  uint64
	blocks []block
	nGPU   int       // blocks[:nGPU] on GPU, blocks[nGPU:] on the host tier
	pos    [2]int    // index in Manager.lru per tier; -1 when not a candidate
	key    [2]uint64 // lastUse of the candidate per tier
}

// victim returns the index of c's eviction candidate on a tier — its last
// block there, if idle — or -1.
func (c *chain) victim(tier int) int {
	lo, i := 0, c.nGPU-1
	if tier == hostTier {
		lo, i = c.nGPU, len(c.blocks)-1
	}
	if i < lo || c.blocks[i].refs > 0 {
		return -1
	}
	return i
}

// lruHeap is a container/heap of chains by their candidate's lastUse.
type lruHeap struct {
	tier int
	cs   []*chain
}

func (h *lruHeap) Len() int           { return len(h.cs) }
func (h *lruHeap) Less(i, j int) bool { return h.cs[i].key[h.tier] < h.cs[j].key[h.tier] }
func (h *lruHeap) Swap(i, j int) {
	h.cs[i], h.cs[j] = h.cs[j], h.cs[i]
	h.cs[i].pos[h.tier], h.cs[j].pos[h.tier] = i, j
}
func (h *lruHeap) Push(x any) {
	c := x.(*chain)
	c.pos[h.tier] = len(h.cs)
	h.cs = append(h.cs, c)
}
func (h *lruHeap) Pop() any {
	c := h.cs[len(h.cs)-1]
	h.cs, c.pos[h.tier] = h.cs[:len(h.cs)-1], -1
	return c
}

// PrefixAcquire reports what AllocatePrefixed found in the cache.
type PrefixAcquire struct {
	// HitTokens of the prompt were already cached (GPU or host tier)
	// and need no prefill compute.
	HitTokens int
	// MissTokens is the remainder of the prompt that must be computed.
	MissTokens int
	// RestoredTokens of the hit were on the host tier and were promoted
	// back to GPU; the caller charges their PCIe transfer time.
	RestoredTokens int
}

// EnablePrefixCache turns on cross-request prefix sharing, optionally
// with the tiered host backing store. Must be called before traffic;
// managers without it behave exactly as before (no reclaim, no sharing).
func (m *Manager) EnablePrefixCache(tiered bool) {
	m.prefixMode, m.tiered = true, tiered
	m.chains = make(map[uint64]*chain)
	m.lru = [2]lruHeap{{tier: gpuTier}, {tier: hostTier}}
}

// PrefixEnabled reports whether EnablePrefixCache was called.
func (m *Manager) PrefixEnabled() bool { return m.prefixMode }

// PrefixBlocks returns the cached shared blocks on (GPU, host) tiers.
func (m *Manager) PrefixBlocks() (gpu, host int) {
	for _, c := range m.chains {
		gpu += c.nGPU
		host += len(c.blocks) - c.nGPU
	}
	return gpu, host
}

// PeekPrefix returns how many tokens of a prompt's shared prefix are
// currently cached (either tier), without acquiring anything — the
// scheduler's view of the cache before it commits a dispatch.
func (m *Manager) PeekPrefix(group uint64, prefixTokens int) int {
	c := m.chains[group]
	if c == nil || prefixTokens <= 0 {
		return 0
	}
	return min(len(c.blocks), prefixTokens/m.blockSize) * m.blockSize
}

// AllocatePrefixed is Allocate for a request whose first prefixTokens
// prompt tokens belong to shared prefix group. Whole blocks of that span
// are looked up in the pool: hits are acquired (refcounted, promoted from
// the host tier if demoted), misses are computed by this request and
// published for later arrivals. The remainder of the context gets
// private blocks as usual. With the cache disabled or group 0 it
// degenerates to plain Allocate.
func (m *Manager) AllocatePrefixed(id RequestID, tokens int, group uint64, prefixTokens int) (PrefixAcquire, error) {
	if !m.prefixMode || group == 0 || prefixTokens < m.blockSize {
		return PrefixAcquire{}, m.Allocate(id, tokens)
	}
	if _, ok := m.tables[id]; ok {
		return PrefixAcquire{}, errAlreadyAllocated(id)
	}
	// Only whole blocks strictly inside the prompt are sharable: the
	// request always computes at least its last token itself.
	nShare := min(prefixTokens, tokens-1) / m.blockSize
	if nShare <= 0 {
		return PrefixAcquire{}, m.Allocate(id, tokens)
	}
	m.stats.PrefixLookups++

	// Chains have no holes: the hit is the chain's length up to nShare.
	c := m.chains[group]
	hitBlocks, restoreBlocks := 0, 0
	if c != nil {
		hitBlocks = min(len(c.blocks), nShare)
		restoreBlocks = max(hitBlocks-c.nGPU, 0)
	}
	privateBlocks := m.BlocksFor(tokens) - nShare
	gpuNeed := privateBlocks + nShare - hitBlocks + restoreBlocks

	// Acquire references before reclaiming so eviction cannot take the
	// very blocks this request is hitting; roll back on failure.
	m.ref(c, hitBlocks, 1)
	if gpuNeed > m.gpuFree && !m.ensureFree(gpuNeed) {
		m.ref(c, hitBlocks, -1)
		m.stats.FailedAllocs++
		return PrefixAcquire{}, ErrNoSpace
	}
	m.gpuFree -= gpuNeed
	m.cpuFree += restoreBlocks
	m.stats.PrefixRestores += uint64(restoreBlocks)
	m.stats.PrefixRestoredTokens += uint64(restoreBlocks * m.blockSize)
	if c == nil {
		c = &chain{group: group, pos: [2]int{-1, -1}}
		m.chains[group] = c
	}
	// Publish missed blocks immediately: followers share them while this
	// request is still prefilling, holding a reference the whole time.
	for len(c.blocks) < nShare {
		c.blocks = append(c.blocks, block{refs: 1})
	}
	c.nGPU = max(c.nGPU, nShare)
	// Stamp recency tail-first, keeping lastUse strictly decreasing
	// along the chain.
	for i := nShare - 1; i >= 0; i-- {
		m.useSeq++
		c.blocks[i].lastUse = m.useSeq
	}
	m.settle(c)

	m.tables[id] = &table{
		tokens: tokens, blocks: privateBlocks, loc: OnGPU,
		group: group, shared: nShare,
	}
	m.touchPeak()

	hitTokens := hitBlocks * m.blockSize
	m.stats.PrefixHitTokens += uint64(hitTokens)
	m.stats.PrefixMissTokens += uint64(tokens - hitTokens)
	return PrefixAcquire{
		HitTokens:      hitTokens,
		MissTokens:     tokens - hitTokens,
		RestoredTokens: restoreBlocks * m.blockSize,
	}, nil
}

// ref adds d to the refcounts of the first n blocks of c, if c exists.
func (m *Manager) ref(c *chain, n, d int) {
	if c == nil {
		return
	}
	for i := range c.blocks[:n] {
		c.blocks[i].refs += d
	}
	m.settle(c)
}

// settle refiles c in both LRU heaps after its blocks changed, and
// forgets it once it is empty.
func (m *Manager) settle(c *chain) {
	for t := range m.lru {
		h, i := &m.lru[t], c.victim(t)
		if i >= 0 {
			c.key[t] = c.blocks[i].lastUse
		}
		switch {
		case i >= 0 && c.pos[t] >= 0:
			heap.Fix(h, c.pos[t])
		case i >= 0:
			heap.Push(h, c)
		case c.pos[t] >= 0:
			heap.Remove(h, c.pos[t])
		}
	}
	if len(c.blocks) == 0 {
		delete(m.chains, c.group)
	}
}

// ensureFree tries to raise gpuFree to need by reclaiming redundant and
// idle state, in order: backup copies first (as the engine always
// reclaimed them first conceptually — they are copies by construction),
// then unreferenced prefix blocks, least recently used first. It is a
// no-op outside prefix mode, preserving the historical never-reclaim
// behavior exactly.
func (m *Manager) ensureFree(need int) bool {
	if need <= m.gpuFree {
		return true
	}
	if !m.prefixMode {
		return false
	}
	m.dropBackups(need)
	if need <= m.gpuFree {
		return true
	}
	m.evictPrefixBlocks(need - m.gpuFree)
	return need <= m.gpuFree
}

// dropBackups releases backup allocations (ascending request id, for
// determinism) until need GPU blocks are free or none remain. Dropping a
// backup is always safe: every consumer checks Has/IsBackup before use.
func (m *Manager) dropBackups(need int) {
	if m.gpuBackups == 0 {
		return
	}
	var ids []RequestID
	for id, t := range m.tables {
		if t.isBackup && t.loc == OnGPU {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if m.gpuFree >= need {
			return
		}
		t := m.tables[id]
		m.gpuFree += t.blocks
		t.dead = true
		delete(m.tables, id)
		m.gpuBackups--
		m.stats.BackupReclaims++
	}
}

// evictPrefixBlocks removes up to n unreferenced prefix blocks from the
// GPU, least recently used first. In tiered mode a victim is demoted to
// host memory while space remains there (write-back is asynchronous and
// untimed); otherwise it is dropped along with the demoted suffix behind
// it. Victim choice is deterministic: lastUse stamps are unique.
func (m *Manager) evictPrefixBlocks(n int) {
	for h := &m.lru[gpuTier]; n > 0 && h.Len() > 0; n-- {
		c := h.cs[0]
		m.gpuFree++
		if m.tiered && m.cpuFree > 0 {
			m.cpuFree--
			m.stats.PrefixDemotions++
		} else {
			host := len(c.blocks) - c.nGPU
			m.cpuFree += host
			m.stats.PrefixEvictions += uint64(1 + host)
			c.blocks = c.blocks[:c.nGPU-1]
		}
		c.nGPU--
		m.settle(c)
	}
}

// ensureHostFree makes room in the host tier for a swap-out by dropping
// idle demoted prefix blocks (LRU): a preempted request's KV always
// outranks a cold cached prefix.
func (m *Manager) ensureHostFree(need int) bool {
	if need <= m.cpuFree {
		return true
	}
	if !m.prefixMode {
		return false
	}
	for h := &m.lru[hostTier]; need > m.cpuFree; {
		if h.Len() == 0 {
			return false
		}
		c := h.cs[0]
		c.blocks = c.blocks[:len(c.blocks)-1]
		m.cpuFree++
		m.stats.PrefixEvictions++
		m.settle(c)
	}
	return true
}
