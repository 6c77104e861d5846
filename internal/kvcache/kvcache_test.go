package kvcache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustMgr(t *testing.T, gpuTokens, cpuTokens int) *Manager {
	t.Helper()
	m, err := New(gpuTokens, cpuTokens, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 100, 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(-1, 0, 16); err == nil {
		t.Error("negative capacity accepted")
	}
	m := mustMgr(t, 160, 320)
	if m.TotalBlocks() != 10 {
		t.Errorf("TotalBlocks = %d, want 10", m.TotalBlocks())
	}
	if m.BlockSize() != 16 {
		t.Errorf("BlockSize = %d", m.BlockSize())
	}
}

func TestBlocksFor(t *testing.T) {
	m := mustMgr(t, 160, 0)
	cases := []struct{ tokens, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3},
	}
	for _, c := range cases {
		if got := m.BlocksFor(c.tokens); got != c.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", c.tokens, got, c.want)
		}
	}
}

func TestAllocateReleaseCycle(t *testing.T) {
	m := mustMgr(t, 160, 0) // 10 blocks
	if err := m.Allocate(1, 100); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 7 || m.FreeBlocks() != 3 {
		t.Errorf("used/free = %d/%d, want 7/3", m.UsedBlocks(), m.FreeBlocks())
	}
	if !m.Has(1) || m.Tokens(1) != 100 {
		t.Error("allocation not recorded")
	}
	if err := m.Allocate(1, 10); err == nil {
		t.Error("double allocate accepted")
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 0 || m.Has(1) {
		t.Error("release did not free")
	}
	if err := m.Release(1); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("double release = %v", err)
	}
}

func TestAllocateNoSpace(t *testing.T) {
	m := mustMgr(t, 160, 0)
	if err := m.Allocate(1, 161); !errors.Is(err, ErrNoSpace) {
		t.Errorf("oversized alloc = %v, want ErrNoSpace", err)
	}
	if m.Stats().FailedAllocs != 1 {
		t.Error("failed alloc not counted")
	}
	if !m.CanAllocate(160) || m.CanAllocate(161) {
		t.Error("CanAllocate mismatch")
	}
}

func TestGrow(t *testing.T) {
	m := mustMgr(t, 160, 0)
	if err := m.Allocate(1, 16); err != nil {
		t.Fatal(err)
	}
	// Growing within the same block consumes nothing... only new blocks.
	if err := m.Grow(1, 17); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Errorf("used = %d, want 2", m.UsedBlocks())
	}
	if err := m.Grow(1, 10); err == nil {
		t.Error("shrink accepted")
	}
	if err := m.Grow(2, 20); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("grow unknown = %v", err)
	}
	if err := m.Grow(1, 1000); !errors.Is(err, ErrNoSpace) {
		t.Errorf("grow beyond capacity = %v", err)
	}
	// Failed grow must not corrupt state.
	if m.Tokens(1) != 17 || m.UsedBlocks() != 2 {
		t.Error("failed grow mutated state")
	}
}

func TestSwapOutIn(t *testing.T) {
	m := mustMgr(t, 160, 160)
	if err := m.Allocate(1, 64); err != nil {
		t.Fatal(err)
	}
	tokens, err := m.SwapOut(1)
	if err != nil || tokens != 64 {
		t.Fatalf("SwapOut = %d, %v", tokens, err)
	}
	if m.UsedBlocks() != 0 {
		t.Error("swap out should free GPU blocks")
	}
	if loc, _ := m.LocationOf(1); loc != Swapped {
		t.Error("location should be Swapped")
	}
	if _, err := m.SwapOut(1); err == nil {
		t.Error("double swap out accepted")
	}
	if err := m.Grow(1, 65); err == nil {
		t.Error("grow while swapped accepted")
	}
	tokens, err = m.SwapIn(1)
	if err != nil || tokens != 64 {
		t.Fatalf("SwapIn = %d, %v", tokens, err)
	}
	if loc, _ := m.LocationOf(1); loc != OnGPU {
		t.Error("location should be OnGPU after swap in")
	}
	if _, err := m.SwapIn(1); err == nil {
		t.Error("swap in of resident request accepted")
	}
	st := m.Stats()
	if st.SwapOutEvents != 1 || st.SwapInEvents != 1 || st.SwapOutTokens != 64 || st.SwapInTokens != 64 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSwapOutNoCPUSpace(t *testing.T) {
	m := mustMgr(t, 160, 16) // only 1 CPU block
	if err := m.Allocate(1, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwapOut(1); !errors.Is(err, ErrNoCPUSpace) {
		t.Errorf("SwapOut = %v, want ErrNoCPUSpace", err)
	}
}

func TestSwapInNoGPUSpace(t *testing.T) {
	m := mustMgr(t, 160, 160)
	if err := m.Allocate(1, 96); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwapOut(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate(2, 160); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwapIn(1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("SwapIn with full GPU = %v, want ErrNoSpace", err)
	}
}

func TestReleaseSwappedFreesCPU(t *testing.T) {
	m := mustMgr(t, 160, 160)
	if err := m.Allocate(1, 160); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwapOut(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	// All CPU space should be free again: a full swap-out must succeed.
	if err := m.Allocate(2, 160); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwapOut(2); err != nil {
		t.Errorf("CPU space not reclaimed: %v", err)
	}
}

func TestBackups(t *testing.T) {
	m := mustMgr(t, 320, 0)
	if err := m.AllocateBackup(7, 100); err != nil {
		t.Fatal(err)
	}
	if !m.IsBackup(7) {
		t.Error("IsBackup(7) = false")
	}
	if m.IsBackup(8) {
		t.Error("IsBackup of unknown request = true")
	}
	if got := m.BackupBlocks(); got != 7 {
		t.Errorf("BackupBlocks = %d, want 7", got)
	}
	ids := m.Backups()
	if len(ids) != 1 || ids[0] != 7 {
		t.Errorf("Backups = %v", ids)
	}
	if err := m.PromoteBackup(7); err != nil {
		t.Fatal(err)
	}
	if m.IsBackup(7) || m.BackupBlocks() != 0 {
		t.Error("promote did not clear backup flag")
	}
	if err := m.PromoteBackup(99); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("promote unknown = %v", err)
	}
}

func TestUtilizationAndPeak(t *testing.T) {
	m := mustMgr(t, 160, 0)
	if m.Utilization() != 0 {
		t.Error("empty utilization should be 0")
	}
	m.Allocate(1, 80)
	if u := m.Utilization(); u != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
	m.Allocate(2, 80)
	m.Release(1)
	m.Release(2)
	if m.Stats().PeakBlocks != 10 {
		t.Errorf("PeakBlocks = %d, want 10", m.Stats().PeakBlocks)
	}
	zero := MustNew(0, 0, 16)
	if zero.Utilization() != 0 {
		t.Error("zero-capacity utilization should be 0")
	}
}

func TestLocationOfUnknown(t *testing.T) {
	m := mustMgr(t, 160, 0)
	if _, err := m.LocationOf(42); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("LocationOf unknown = %v", err)
	}
	if m.Tokens(42) != 0 {
		t.Error("Tokens of unknown should be 0")
	}
}

func TestStringer(t *testing.T) {
	m := mustMgr(t, 160, 160)
	m.Allocate(1, 32)
	if s := m.String(); !strings.Contains(s, "2/10") {
		t.Errorf("String = %q", s)
	}
}

// Property: block accounting is conserved across random operation
// sequences — gpuFree + Σ resident blocks == capacity, and likewise for
// CPU swap space.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(64*16, 32*16, 16)
		live := map[RequestID]bool{}
		next := RequestID(1)
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0: // allocate
				id := next
				next++
				if m.Allocate(id, rng.Intn(200)+1) == nil {
					live[id] = true
				}
			case 1: // grow
				for id := range live {
					if loc, _ := m.LocationOf(id); loc == OnGPU {
						m.Grow(id, m.Tokens(id)+rng.Intn(40)+1)
					}
					break
				}
			case 2: // release
				for id := range live {
					m.Release(id)
					delete(live, id)
					break
				}
			case 3: // swap out
				for id := range live {
					if loc, _ := m.LocationOf(id); loc == OnGPU {
						m.SwapOut(id)
					}
					break
				}
			case 4: // swap in
				for id := range live {
					if loc, _ := m.LocationOf(id); loc == Swapped {
						m.SwapIn(id)
					}
					break
				}
			}
			// Invariants.
			gpuHeld, cpuHeld := 0, 0
			for id := range live {
				loc, err := m.LocationOf(id)
				if err != nil {
					return false
				}
				blocks := m.BlocksFor(m.Tokens(id))
				if loc == OnGPU {
					gpuHeld += blocks
				} else {
					cpuHeld += blocks
				}
			}
			if m.UsedBlocks() != gpuHeld {
				return false
			}
			if m.FreeBlocks()+gpuHeld != 64 {
				return false
			}
			if m.FreeBlocks() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHandleGoesStale: a handle dies with its table. After Release, Reset,
// a backup reclaim (dropBackups) and a re-allocation of the same id, the
// old handle is stale, GrowHandle through it returns exactly what Grow
// returns on an identical manager, and the dropped table never grows.
func TestHandleGoesStale(t *testing.T) {
	drops := []struct {
		name   string
		backup bool
		drop   func(m *Manager)
	}{
		{"release", false, func(m *Manager) { _ = m.Release(1) }},
		{"reset", false, func(m *Manager) { m.Reset() }},
		{"dropBackups", true, func(m *Manager) { _ = m.Allocate(2, 9*16) }},
		{"reallocate", false, func(m *Manager) { _ = m.Release(1); _ = m.Allocate(1, 20) }},
	}
	for _, c := range drops {
		t.Run(c.name, func(t *testing.T) {
			m, ref := mustMgr(t, 10*16, 0), mustMgr(t, 10*16, 0)
			for _, x := range []*Manager{m, ref} {
				x.EnablePrefixCache(false) // backups are reclaimed only in prefix mode
				alloc := x.Allocate
				if c.backup {
					alloc = x.AllocateBackup
				}
				if err := alloc(1, 32); err != nil {
					t.Fatal(err)
				}
			}
			h := m.Handle(1)
			if !h.Live() || m.GrowHandle(h, 1, 33) != nil || ref.Grow(1, 33) != nil {
				t.Fatal("fresh handle should be live and grow")
			}
			c.drop(m)
			c.drop(ref)
			if h.Live() {
				t.Fatal("handle still live after its table was dropped")
			}
			for _, tokens := range []int{40, 64, 200} {
				err, want := m.GrowHandle(h, 1, tokens), ref.Grow(1, tokens)
				if fmt.Sprint(err) != fmt.Sprint(want) || m.Tokens(1) != ref.Tokens(1) ||
					m.FreeBlocks() != ref.FreeBlocks() || m.Stats() != ref.Stats() {
					t.Fatalf("GrowHandle(%d) = %v (tokens %d, free %d), Grow = %v (tokens %d, free %d)",
						tokens, err, m.Tokens(1), m.FreeBlocks(), want, ref.Tokens(1), ref.FreeBlocks())
				}
			}
			if h.t.tokens != 33 {
				t.Fatalf("dead table grew to %d tokens", h.t.tokens)
			}
			if m.Handle(1) == h {
				t.Fatal("re-allocated id reused the stale handle")
			}
		})
	}
}
