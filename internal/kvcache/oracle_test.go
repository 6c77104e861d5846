package kvcache

import (
	"fmt"
	"sort"
)

// refManager is the reference model for FuzzPrefixPool: the original
// prefix pool, one heap object per block in a map keyed by (group, idx),
// whose LRU eviction scans the whole map once per victim. It is slow but
// obviously correct, so the chain-indexed Manager must agree with it on
// every observable after every operation. It carries the host-suffix
// fix: dropping a GPU block also drops the demoted blocks behind it.
type refManager struct {
	blockSize          int
	gpuBlocks, gpuFree int
	cpuBlocks, cpuFree int
	tables             map[RequestID]*table
	stats              Stats
	prefixMode, tiered bool
	prefix             map[refKey]*refBlock
	useSeq             uint64
}

type refKey struct {
	group uint64
	idx   int
}

type refBlock struct {
	refs    int
	onGPU   bool
	lastUse uint64
}

func newRef(gpuTokens, cpuTokens, blockSize int) *refManager {
	g, c := gpuTokens/blockSize, cpuTokens/blockSize
	return &refManager{
		blockSize: blockSize,
		gpuBlocks: g, gpuFree: g,
		cpuBlocks: c, cpuFree: c,
		tables: make(map[RequestID]*table),
	}
}

func (m *refManager) enablePrefixCache(tiered bool) {
	m.prefixMode, m.tiered = true, tiered
	m.prefix = make(map[refKey]*refBlock)
}

func (m *refManager) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + m.blockSize - 1) / m.blockSize
}

func (m *refManager) touchPeak() {
	if used := m.gpuBlocks - m.gpuFree; used > m.stats.PeakBlocks {
		m.stats.PeakBlocks = used
	}
}

func (m *refManager) prefixBlocks() (gpu, host int) {
	for _, b := range m.prefix {
		if b.onGPU {
			gpu++
		} else {
			host++
		}
	}
	return gpu, host
}

func (m *refManager) peekPrefix(group uint64, prefixTokens int) int {
	if !m.prefixMode || group == 0 {
		return 0
	}
	hit := 0
	for i := 0; i < prefixTokens/m.blockSize; i++ {
		if _, ok := m.prefix[refKey{group, i}]; !ok {
			break
		}
		hit++
	}
	return hit * m.blockSize
}

func (m *refManager) allocate(id RequestID, tokens int, reclaim bool) error {
	if _, ok := m.tables[id]; ok {
		return errAlreadyAllocated(id)
	}
	need := m.blocksFor(tokens)
	if need > m.gpuFree && (!reclaim || !m.ensureFree(need)) {
		m.stats.FailedAllocs++
		return ErrNoSpace
	}
	m.gpuFree -= need
	m.tables[id] = &table{tokens: tokens, blocks: need, loc: OnGPU}
	m.touchPeak()
	return nil
}

func (m *refManager) allocateBackup(id RequestID, tokens int) error {
	if err := m.allocate(id, tokens, false); err != nil {
		return err
	}
	m.tables[id].isBackup = true
	return nil
}

func (m *refManager) promoteBackup(id RequestID) error {
	t, ok := m.tables[id]
	if !ok {
		return ErrUnknownRequest
	}
	t.isBackup = false
	return nil
}

func (m *refManager) grow(id RequestID, newTokens int) error {
	t, ok := m.tables[id]
	if !ok {
		return ErrUnknownRequest
	}
	if t.loc != OnGPU {
		return fmt.Errorf("kvcache: request %d is swapped out", id)
	}
	if newTokens < t.tokens {
		return fmt.Errorf("kvcache: cannot shrink request %d from %d to %d tokens", id, t.tokens, newTokens)
	}
	need := m.blocksFor(newTokens) - t.shared - t.blocks
	if need > m.gpuFree && (t.isBackup || !m.ensureFree(need)) {
		m.stats.FailedAllocs++
		return ErrNoSpace
	}
	m.gpuFree -= need
	t.blocks += need
	t.tokens = newTokens
	m.touchPeak()
	return nil
}

func (m *refManager) release(id RequestID) error {
	t, ok := m.tables[id]
	if !ok {
		return ErrUnknownRequest
	}
	if t.loc == OnGPU {
		m.gpuFree += t.blocks
	} else {
		m.cpuFree += t.blocks
	}
	for i := 0; i < t.shared; i++ {
		if b, ok := m.prefix[refKey{t.group, i}]; ok && b.refs > 0 {
			b.refs--
		}
	}
	delete(m.tables, id)
	return nil
}

func (m *refManager) swapOut(id RequestID) (int, error) {
	t, ok := m.tables[id]
	if !ok {
		return 0, ErrUnknownRequest
	}
	if t.loc == Swapped {
		return 0, fmt.Errorf("kvcache: request %d already swapped", id)
	}
	if t.blocks > m.cpuFree && !m.ensureHostFree(t.blocks) {
		return 0, ErrNoCPUSpace
	}
	m.gpuFree += t.blocks
	m.cpuFree -= t.blocks
	t.loc = Swapped
	moved := t.privateTokens(m.blockSize)
	m.stats.SwapOutEvents++
	m.stats.SwapOutTokens += uint64(moved)
	return moved, nil
}

func (m *refManager) swapIn(id RequestID) (int, error) {
	t, ok := m.tables[id]
	if !ok {
		return 0, ErrUnknownRequest
	}
	if t.loc == OnGPU {
		return 0, fmt.Errorf("kvcache: request %d is not swapped", id)
	}
	if t.blocks > m.gpuFree && !m.ensureFree(t.blocks) {
		m.stats.SwapInFailures++
		return 0, ErrNoSpace
	}
	m.gpuFree -= t.blocks
	m.cpuFree += t.blocks
	t.loc = OnGPU
	moved := t.privateTokens(m.blockSize)
	m.stats.SwapInEvents++
	m.stats.SwapInTokens += uint64(moved)
	m.touchPeak()
	return moved, nil
}

func (m *refManager) reset() {
	m.gpuFree, m.cpuFree = m.gpuBlocks, m.cpuBlocks
	m.tables = make(map[RequestID]*table)
	if m.prefixMode {
		m.prefix = make(map[refKey]*refBlock)
	}
}

func (m *refManager) allocatePrefixed(id RequestID, tokens int, group uint64, prefixTokens int) (PrefixAcquire, error) {
	if !m.prefixMode || group == 0 || prefixTokens < m.blockSize {
		return PrefixAcquire{}, m.allocate(id, tokens, true)
	}
	if _, ok := m.tables[id]; ok {
		return PrefixAcquire{}, errAlreadyAllocated(id)
	}
	share := min(prefixTokens, tokens-1)
	nShare := share / m.blockSize
	if nShare <= 0 {
		return PrefixAcquire{}, m.allocate(id, tokens, true)
	}
	m.stats.PrefixLookups++
	var hit []*refBlock
	restoreBlocks := 0
	for i := 0; i < nShare; i++ {
		b, ok := m.prefix[refKey{group, i}]
		if !ok {
			break
		}
		hit = append(hit, b)
		if !b.onGPU {
			restoreBlocks++
		}
	}
	hitBlocks := len(hit)
	privateBlocks := m.blocksFor(tokens) - nShare
	gpuNeed := privateBlocks + nShare - hitBlocks + restoreBlocks
	for _, b := range hit {
		b.refs++
	}
	if gpuNeed > m.gpuFree && !m.ensureFree(gpuNeed) {
		for _, b := range hit {
			b.refs--
		}
		m.stats.FailedAllocs++
		return PrefixAcquire{}, ErrNoSpace
	}
	m.gpuFree -= gpuNeed
	for _, b := range hit {
		if !b.onGPU {
			b.onGPU = true
			m.cpuFree++
			m.stats.PrefixRestores++
			m.stats.PrefixRestoredTokens += uint64(m.blockSize)
		}
	}
	for i := hitBlocks; i < nShare; i++ {
		m.prefix[refKey{group, i}] = &refBlock{refs: 1, onGPU: true}
	}
	for i := nShare - 1; i >= 0; i-- {
		m.useSeq++
		m.prefix[refKey{group, i}].lastUse = m.useSeq
	}
	m.tables[id] = &table{tokens: tokens, blocks: privateBlocks, loc: OnGPU, group: group, shared: nShare}
	m.touchPeak()
	hitTokens := hitBlocks * m.blockSize
	m.stats.PrefixHitTokens += uint64(hitTokens)
	m.stats.PrefixMissTokens += uint64(tokens - hitTokens)
	return PrefixAcquire{HitTokens: hitTokens, MissTokens: tokens - hitTokens, RestoredTokens: restoreBlocks * m.blockSize}, nil
}

func (m *refManager) ensureFree(need int) bool {
	if need <= m.gpuFree {
		return true
	}
	if !m.prefixMode {
		return false
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
			break
		}
		m.gpuFree += m.tables[id].blocks
		delete(m.tables, id)
		m.stats.BackupReclaims++
	}
	for n := need - m.gpuFree; n > 0; n-- {
		vk, victim := m.lruVictim(true)
		if victim == nil {
			break
		}
		m.gpuFree++
		if m.tiered && m.cpuFree > 0 {
			m.cpuFree--
			victim.onGPU = false
			m.stats.PrefixDemotions++
			continue
		}
		delete(m.prefix, vk)
		m.stats.PrefixEvictions++
		// The host-suffix fix: the demoted blocks behind a dropped GPU
		// block go with it.
		for j := vk.idx + 1; m.prefix[refKey{vk.group, j}] != nil; j++ {
			delete(m.prefix, refKey{vk.group, j})
			m.cpuFree++
			m.stats.PrefixEvictions++
		}
	}
	return need <= m.gpuFree
}

func (m *refManager) ensureHostFree(need int) bool {
	if need <= m.cpuFree {
		return true
	}
	if !m.prefixMode {
		return false
	}
	for need > m.cpuFree {
		vk, victim := m.lruVictim(false)
		if victim == nil {
			return false
		}
		m.cpuFree++
		delete(m.prefix, vk)
		m.stats.PrefixEvictions++
	}
	return true
}

// lruVictim scans the whole pool for the least recently used idle block
// on the given tier.
func (m *refManager) lruVictim(onGPU bool) (refKey, *refBlock) {
	var vk refKey
	var victim *refBlock
	for k, b := range m.prefix {
		if b.refs > 0 || b.onGPU != onGPU {
			continue
		}
		if victim == nil || b.lastUse < victim.lastUse {
			victim, vk = b, k
		}
	}
	return vk, victim
}
