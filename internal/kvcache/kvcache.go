// Package kvcache implements a PagedAttention-style KV-cache block manager
// (paper §2.1): the KV space of a serving instance is divided into
// fixed-size blocks of tokens, allocated on demand per request as contexts
// grow, with optional swap space in host memory for preempted requests and
// backup copies used by WindServe's rescheduling (paper §3.3).
//
// Because allocation is paged there is no fragmentation to model; the
// manager tracks block counts and per-request block tables, which is all
// the schedulers observe.
package kvcache

import (
	"errors"
	"fmt"
)

// DefaultBlockSize is the tokens-per-block used by vLLM and DistServe.
const DefaultBlockSize = 16

// ErrNoSpace is returned when a GPU allocation cannot be satisfied.
var ErrNoSpace = errors.New("kvcache: insufficient free GPU blocks")

// ErrNoCPUSpace is returned when swap space is exhausted.
var ErrNoCPUSpace = errors.New("kvcache: insufficient free CPU swap blocks")

// ErrUnknownRequest is returned for operations on requests with no
// allocation.
var ErrUnknownRequest = errors.New("kvcache: unknown request")

// RequestID identifies a request's allocation.
type RequestID uint64

// Location says where a request's KV blocks currently live.
type Location int

const (
	// OnGPU means all the request's blocks are in device memory.
	OnGPU Location = iota
	// Swapped means the blocks were swapped out to host memory.
	Swapped
)

type table struct {
	tokens   int
	blocks   int // private blocks only; shared prefix blocks are counted in shared
	loc      Location
	isBackup bool
	// group/shared link the request to the prefix pool: the first
	// shared*blockSize tokens live in refcounted blocks of the given
	// prefix group (see prefix.go). Zero for plain allocations.
	group  uint64
	shared int
	// dead marks a table the manager has dropped (Release, Reset,
	// dropBackups), so a Handle to it is stale.
	dead bool
}

// privateTokens is the token span held in the request's own blocks, i.e.
// what actually moves on a swap. The shared prefix stays resident.
func (t *table) privateTokens(blockSize int) int {
	return t.tokens - t.shared*blockSize
}

// gpuBackup is 1 for a backup copy resident on GPU and 0 otherwise.
func (t *table) gpuBackup() int {
	if t.isBackup && t.loc == OnGPU {
		return 1
	}
	return 0
}

// Stats aggregates allocator activity for the experiment harness
// (Fig. 1a's swap counts come from here).
type Stats struct {
	// PeakBlocks is the maximum concurrently-used GPU block count.
	PeakBlocks int
	// SwapOutEvents / SwapInEvents count whole-request swaps.
	SwapOutEvents, SwapInEvents uint64
	// SwapOutTokens / SwapInTokens count tokens moved across the host link.
	SwapOutTokens, SwapInTokens uint64
	// FailedAllocs counts admission-path allocation attempts (Allocate,
	// Grow, AllocatePrefixed) rejected with ErrNoSpace. Swap-in retries
	// are deliberately excluded: they are transient back-pressure, not
	// admission failures, and are counted in SwapInFailures instead.
	FailedAllocs uint64
	// SwapInFailures counts SwapIn attempts deferred by transient GPU
	// pressure. The engine retries these every kick, so one stuck
	// request can contribute many; shedding heuristics must not read
	// them as admission failures.
	SwapInFailures uint64

	// Prefix-cache counters; all zero unless EnablePrefixCache was
	// called (see prefix.go).

	// PrefixLookups counts AllocatePrefixed calls that consulted the pool.
	PrefixLookups uint64
	// PrefixHitTokens / PrefixMissTokens partition every looked-up
	// prompt's tokens into prefix-cache hits and misses.
	PrefixHitTokens, PrefixMissTokens uint64
	// PrefixEvictions counts unreferenced prefix blocks dropped outright;
	// PrefixDemotions counts those demoted to the host tier instead.
	PrefixEvictions, PrefixDemotions uint64
	// PrefixRestores / PrefixRestoredTokens count host-tier prefix blocks
	// promoted back to GPU on a hit (the timed PCIe restore path).
	PrefixRestores, PrefixRestoredTokens uint64
	// BackupReclaims counts backup copies dropped to make room, which
	// happens before any prefix block is evicted.
	BackupReclaims uint64
}

// PrefixHitRatio is the token-weighted prefix-cache hit ratio across all
// lookups, 0 when the cache saw no traffic.
func (s Stats) PrefixHitRatio() float64 {
	tot := s.PrefixHitTokens + s.PrefixMissTokens
	if tot == 0 {
		return 0
	}
	return float64(s.PrefixHitTokens) / float64(tot)
}

// Accumulate folds another manager's counters into s for cross-instance
// aggregation: counters add, PeakBlocks takes the max (peaks on distinct
// GPUs are concurrent, not sequential).
func (s *Stats) Accumulate(o Stats) {
	s.SwapOutEvents += o.SwapOutEvents
	s.SwapInEvents += o.SwapInEvents
	s.SwapOutTokens += o.SwapOutTokens
	s.SwapInTokens += o.SwapInTokens
	s.FailedAllocs += o.FailedAllocs
	s.SwapInFailures += o.SwapInFailures
	s.PrefixLookups += o.PrefixLookups
	s.PrefixHitTokens += o.PrefixHitTokens
	s.PrefixMissTokens += o.PrefixMissTokens
	s.PrefixEvictions += o.PrefixEvictions
	s.PrefixDemotions += o.PrefixDemotions
	s.PrefixRestores += o.PrefixRestores
	s.PrefixRestoredTokens += o.PrefixRestoredTokens
	s.BackupReclaims += o.BackupReclaims
	if o.PeakBlocks > s.PeakBlocks {
		s.PeakBlocks = o.PeakBlocks
	}
}

// Manager is a block allocator for one serving instance. It is not
// goroutine-safe; the event-driven simulation is single-threaded.
type Manager struct {
	blockSize int
	gpuBlocks int
	gpuFree   int
	cpuBlocks int
	cpuFree   int
	tables    map[RequestID]*table
	stats     Stats
	// gpuBackups counts backups resident on GPU; dropBackups skips at 0.
	gpuBackups int

	// Prefix-cache state (see prefix.go); nil map when disabled.
	prefixMode bool
	tiered     bool
	chains     map[uint64]*chain
	lru        [2]lruHeap // per tier: chains by their eviction candidate
	useSeq     uint64
}

// New creates a manager with capacity for gpuTokens of KV cache on device
// and cpuTokens of swap space, in blocks of blockSize tokens.
func New(gpuTokens, cpuTokens, blockSize int) (*Manager, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("kvcache: block size %d must be positive", blockSize)
	}
	if gpuTokens < 0 || cpuTokens < 0 {
		return nil, fmt.Errorf("kvcache: negative capacity")
	}
	g, c := gpuTokens/blockSize, cpuTokens/blockSize
	return &Manager{
		blockSize: blockSize,
		gpuBlocks: g, gpuFree: g,
		cpuBlocks: c, cpuFree: c,
		tables: make(map[RequestID]*table),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(gpuTokens, cpuTokens, blockSize int) *Manager {
	m, err := New(gpuTokens, cpuTokens, blockSize)
	if err != nil {
		panic(err)
	}
	return m
}

// BlockSize returns tokens per block.
func (m *Manager) BlockSize() int { return m.blockSize }

// BlocksFor returns the number of blocks needed to hold tokens.
func (m *Manager) BlocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + m.blockSize - 1) / m.blockSize
}

// TotalBlocks returns total GPU block capacity.
func (m *Manager) TotalBlocks() int { return m.gpuBlocks }

// FreeBlocks returns currently free GPU blocks.
func (m *Manager) FreeBlocks() int { return m.gpuFree }

// UsedBlocks returns currently allocated GPU blocks.
func (m *Manager) UsedBlocks() int { return m.gpuBlocks - m.gpuFree }

// FreeTokens returns the token capacity of the free GPU blocks.
func (m *Manager) FreeTokens() int { return m.gpuFree * m.blockSize }

// Utilization returns the used fraction of GPU blocks (0 when empty, and
// 0 for a zero-capacity manager).
func (m *Manager) Utilization() float64 {
	if m.gpuBlocks == 0 {
		return 0
	}
	return float64(m.UsedBlocks()) / float64(m.gpuBlocks)
}

// Stats returns a copy of the accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Has reports whether the request has an allocation (on GPU or swapped).
func (m *Manager) Has(id RequestID) bool {
	_, ok := m.tables[id]
	return ok
}

// LocationOf returns where the request's blocks live.
func (m *Manager) LocationOf(id RequestID) (Location, error) {
	t, ok := m.tables[id]
	if !ok {
		return OnGPU, ErrUnknownRequest
	}
	return t.loc, nil
}

// Tokens returns the number of tokens allocated for the request.
func (m *Manager) Tokens(id RequestID) int {
	if t, ok := m.tables[id]; ok {
		return t.tokens
	}
	return 0
}

// CanAllocate reports whether tokens more could be allocated on GPU now.
func (m *Manager) CanAllocate(tokens int) bool {
	return m.BlocksFor(tokens) <= m.gpuFree
}

// Allocate reserves GPU blocks for a new request with the given context
// length. Allocating an existing id is an error. In prefix mode a
// shortfall first reclaims backups and then idle prefix blocks.
func (m *Manager) Allocate(id RequestID, tokens int) error {
	return m.allocate(id, tokens, true)
}

func errAlreadyAllocated(id RequestID) error {
	return fmt.Errorf("kvcache: request %d already allocated", id)
}

func (m *Manager) allocate(id RequestID, tokens int, reclaim bool) error {
	if _, ok := m.tables[id]; ok {
		return errAlreadyAllocated(id)
	}
	need := m.BlocksFor(tokens)
	if need > m.gpuFree && (!reclaim || !m.ensureFree(need)) {
		m.stats.FailedAllocs++
		return ErrNoSpace
	}
	m.gpuFree -= need
	m.tables[id] = &table{tokens: tokens, blocks: need, loc: OnGPU}
	m.touchPeak()
	return nil
}

// Grow extends a request's allocation to newTokens total (e.g. one more
// token per decode step). Shrinking is not supported; growing a swapped
// request is an error.
func (m *Manager) Grow(id RequestID, newTokens int) error {
	t, ok := m.tables[id]
	if !ok {
		return ErrUnknownRequest
	}
	return m.grow(t, id, newTokens)
}

// Handle refers to one request's block table without a map lookup. It
// stays live until the manager drops that table; a stale handle is never
// reused, even when the id is allocated again.
type Handle struct{ t *table }

// Handle returns a handle to id's current table (stale if id has none).
func (m *Manager) Handle(id RequestID) Handle { return Handle{m.tables[id]} }

// Live reports whether the handle's table is still held by its manager.
func (h Handle) Live() bool { return h.t != nil && !h.t.dead }

// GrowHandle is Grow through a handle taken from this manager for id. A
// stale handle falls back to Grow, so the result is always Grow's.
func (m *Manager) GrowHandle(h Handle, id RequestID, newTokens int) error {
	if !h.Live() {
		return m.Grow(id, newTokens)
	}
	return m.grow(h.t, id, newTokens)
}

func (m *Manager) grow(t *table, id RequestID, newTokens int) error {
	if t.loc != OnGPU {
		return fmt.Errorf("kvcache: request %d is swapped out", id)
	}
	if newTokens < t.tokens {
		return fmt.Errorf("kvcache: cannot shrink request %d from %d to %d tokens", id, t.tokens, newTokens)
	}
	need := m.BlocksFor(newTokens) - t.shared - t.blocks
	// Like AllocateBackup, a backup never reclaims to grow.
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

// Release frees all private blocks of a request (on GPU or in swap) and
// drops its references on shared prefix blocks. The shared blocks
// themselves stay cached until evicted.
func (m *Manager) Release(id RequestID) error {
	t, ok := m.tables[id]
	if !ok {
		return ErrUnknownRequest
	}
	m.gpuBackups -= t.gpuBackup()
	if t.loc == OnGPU {
		m.gpuFree += t.blocks
	} else {
		m.cpuFree += t.blocks
	}
	if t.shared > 0 {
		m.ref(m.chains[t.group], t.shared, -1) // the blocks stay cached
	}
	t.dead = true
	delete(m.tables, id)
	return nil
}

// SwapOut moves a request's blocks to host memory, freeing GPU blocks.
// Returns the number of tokens moved (for transfer timing).
func (m *Manager) SwapOut(id RequestID) (tokens int, err error) {
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
	m.gpuBackups -= t.gpuBackup()
	t.loc = Swapped
	moved := t.privateTokens(m.blockSize)
	m.stats.SwapOutEvents++
	m.stats.SwapOutTokens += uint64(moved)
	return moved, nil
}

// SwapIn moves a swapped request's blocks back to GPU memory.
// Returns the number of tokens moved.
func (m *Manager) SwapIn(id RequestID) (tokens int, err error) {
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
	m.gpuBackups += t.gpuBackup()
	moved := t.privateTokens(m.blockSize)
	m.stats.SwapInEvents++
	m.stats.SwapInTokens += uint64(moved)
	m.touchPeak()
	return moved, nil
}

// AllocateBackup reserves GPU blocks holding a *copy* of another
// instance's KV cache for a request (WindServe's migration-cost
// optimization, §3.3). Backups are identical to normal allocations except
// they are flagged, so the engine can reclaim them first under pressure.
func (m *Manager) AllocateBackup(id RequestID, tokens int) error {
	// A backup is an opportunistic use of spare memory, so it never
	// reclaims other backups or cached prefix blocks to fit.
	if err := m.allocate(id, tokens, false); err != nil {
		return err
	}
	m.tables[id].isBackup = true
	m.gpuBackups++
	return nil
}

// IsBackup reports whether the request's allocation is a backup copy.
func (m *Manager) IsBackup(id RequestID) bool {
	t, ok := m.tables[id]
	return ok && t.isBackup
}

// PromoteBackup converts a backup into a normal allocation (when the
// backed-up request is actually rescheduled here).
func (m *Manager) PromoteBackup(id RequestID) error {
	t, ok := m.tables[id]
	if !ok {
		return ErrUnknownRequest
	}
	m.gpuBackups -= t.gpuBackup()
	t.isBackup = false
	return nil
}

// Backups returns the ids of all backup allocations.
func (m *Manager) Backups() []RequestID {
	var ids []RequestID
	for id, t := range m.tables {
		if t.isBackup {
			ids = append(ids, id)
		}
	}
	return ids
}

// BackupBlocks returns the number of GPU blocks held by backups.
func (m *Manager) BackupBlocks() int {
	n := 0
	for _, t := range m.tables {
		if t.isBackup && t.loc == OnGPU {
			n += t.blocks
		}
	}
	return n
}

// Reset drops every allocation — GPU, swap, backups, and the shared
// prefix pool on both tiers — restoring full free capacity, as when an
// instance crashes and its memory contents are lost. Statistics
// accumulate across resets so a run's totals survive; prefix mode stays
// enabled and the pool refills from post-crash traffic.
func (m *Manager) Reset() {
	m.gpuFree = m.gpuBlocks
	m.cpuFree = m.cpuBlocks
	for _, t := range m.tables {
		t.dead = true
	}
	m.tables = make(map[RequestID]*table)
	m.gpuBackups = 0
	if m.prefixMode {
		m.EnablePrefixCache(m.tiered)
	}
}

func (m *Manager) touchPeak() {
	if used := m.UsedBlocks(); used > m.stats.PeakBlocks {
		m.stats.PeakBlocks = used
	}
}

func (m *Manager) String() string {
	return fmt.Sprintf("kvcache: %d/%d GPU blocks used (%.0f%%), %d/%d CPU blocks used, %d requests",
		m.UsedBlocks(), m.gpuBlocks, 100*m.Utilization(), m.cpuBlocks-m.cpuFree, m.cpuBlocks, len(m.tables))
}
