package kvcache

import (
	"fmt"
	"testing"
)

// check verifies the manager's block accounting and the prefix pool's
// structural invariants: both tiers are conserved, every chain is
// hole-free with lastUse strictly decreasing and refs non-increasing
// along it, refs equal the holders' references, and each tier's LRU heap
// holds exactly the chains with an idle candidate, keyed by its lastUse.
func (m *Manager) check() error {
	gpu, host, backups := 0, 0, 0
	want := map[uint64][]int{} // expected refs per chain block
	for id, t := range m.tables {
		if t.loc == OnGPU {
			gpu += t.blocks
			backups += t.gpuBackup()
		} else {
			host += t.blocks
		}
		if t.shared == 0 {
			continue
		}
		c := m.chains[t.group]
		if c == nil || len(c.blocks) < t.shared {
			return fmt.Errorf("request %d holds %d blocks of group %d past its chain", id, t.shared, t.group)
		}
		if want[t.group] == nil {
			want[t.group] = make([]int, len(c.blocks))
		}
		for i := 0; i < t.shared; i++ {
			want[t.group][i]++
		}
	}
	pg, ph := m.PrefixBlocks()
	if gpu+pg+m.gpuFree != m.gpuBlocks {
		return fmt.Errorf("GPU blocks not conserved: %d private + %d prefix + %d free != %d", gpu, pg, m.gpuFree, m.gpuBlocks)
	}
	if host+ph+m.cpuFree != m.cpuBlocks {
		return fmt.Errorf("host blocks not conserved: %d swapped + %d prefix + %d free != %d", host, ph, m.cpuFree, m.cpuBlocks)
	}
	if backups != m.gpuBackups {
		return fmt.Errorf("gpuBackups = %d, want %d", m.gpuBackups, backups)
	}
	for g, c := range m.chains {
		if c.group != g || len(c.blocks) == 0 || c.nGPU < 0 || c.nGPU > len(c.blocks) {
			return fmt.Errorf("group %d: malformed chain (group %d, len %d, nGPU %d)", g, c.group, len(c.blocks), c.nGPU)
		}
		for i, b := range c.blocks {
			if w := want[g]; w == nil && b.refs != 0 || w != nil && w[i] != b.refs {
				return fmt.Errorf("group %d block %d: refs %d disagree with its holders", g, i, b.refs)
			}
			if i > 0 && b.lastUse >= c.blocks[i-1].lastUse {
				return fmt.Errorf("group %d block %d: lastUse %d not below %d", g, i, b.lastUse, c.blocks[i-1].lastUse)
			}
			if i > 0 && b.refs > c.blocks[i-1].refs {
				return fmt.Errorf("group %d block %d: refs rise along the chain", g, i)
			}
		}
		for t := range m.lru {
			i, p := c.victim(t), c.pos[t]
			if (i < 0) != (p < 0) {
				return fmt.Errorf("group %d tier %d: candidate %d but heap position %d", g, t, i, p)
			}
			if i >= 0 && (p >= len(m.lru[t].cs) || m.lru[t].cs[p] != c || c.key[t] != c.blocks[i].lastUse) {
				return fmt.Errorf("group %d tier %d: stale heap entry", g, t)
			}
		}
	}
	for t := range m.lru {
		h := &m.lru[t]
		for j, c := range h.cs {
			if c.pos[t] != j || m.chains[c.group] != c {
				return fmt.Errorf("tier %d heap slot %d: chain of group %d misfiled", t, j, c.group)
			}
			if j > 0 && h.Less(j, (j-1)/2) {
				return fmt.Errorf("tier %d heap order broken at %d", t, j)
			}
		}
	}
	return nil
}

// TestHostSuffixDroppedWithGPUBlock is the host-tier slot leak
// regression: when a full host tier forces a GPU prefix block to be
// dropped, the demoted blocks behind it must go too. Otherwise the chain
// is holed, and re-publishing the hole's span overwrites the stranded
// host blocks without returning their slots.
func TestHostSuffixDroppedWithGPUBlock(t *testing.T) {
	m := MustNew(10*16, 2*16, 16)
	m.EnablePrefixCache(true)
	if _, err := m.AllocatePrefixed(1, 97, 7, 96); err != nil { // 6 shared + 1 private
		t.Fatal(err)
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	// 5 blocks demote idx 5; 2 more demote idx 4 and, with the host
	// tier full, drop idx 3 — and with it the host suffix 4–5.
	if err := m.Allocate(2, 5*16); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate(3, 2*16); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PrefixDemotions != 2 || st.PrefixEvictions != 3 {
		t.Fatalf("stats = %+v, want 2 demotions, 3 evictions", st)
	}
	if gpu, host := m.PrefixBlocks(); gpu != 3 || host != 0 || m.cpuFree != 2 {
		t.Fatalf("tiers = %d/%d with %d host slots free, want 3/0 with 2", gpu, host, m.cpuFree)
	}
	for _, id := range []RequestID{2, 3} {
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	acq, err := m.AllocatePrefixed(4, 97, 7, 96)
	if err != nil {
		t.Fatal(err)
	}
	if acq.HitTokens != 48 || acq.RestoredTokens != 0 {
		t.Fatalf("re-acquire = %+v, want a 48-token GPU hit", acq)
	}
	if m.cpuFree != m.cpuBlocks {
		t.Fatalf("host tier leaked: %d/%d free", m.cpuFree, m.cpuBlocks)
	}
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
}

// FuzzPrefixPool replays byte-decoded operation sequences against the
// Manager and the map-scan reference pool, requiring identical results,
// errors, statistics and cache views after every operation, and intact
// invariants throughout. Its seed corpus is testdata/fuzz/FuzzPrefixPool.
func FuzzPrefixPool(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The first byte sizes the manager: 4–11 GPU blocks, 0–3 host
		// blocks, tiered or not, and occasionally no prefix cache at all.
		cfg := data[0]
		gpu, cpu := 4+int(cfg&7), int(cfg>>3&3)
		m, r := MustNew(gpu*16, cpu*16, 16), newRef(gpu*16, cpu*16, 16)
		if cfg&0x40 == 0 {
			m.EnablePrefixCache(cfg&0x20 != 0)
			r.enablePrefixCache(cfg&0x20 != 0)
		}
		var handles [6]Handle // per id, refreshed only when an op asks
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			id, tokens := RequestID(ops[1]%6), 1+int(ops[2])/2
			group, prefix := uint64(ops[3]%4), int(ops[3]>>2)*4
			var err, rerr error
			var got, want any
			switch ops[0] % 13 {
			case 0, 1:
				err, rerr = m.Allocate(id, tokens), r.allocate(id, tokens, true)
			case 2, 3, 4:
				got, err = m.AllocatePrefixed(id, tokens, group, prefix)
				want, rerr = r.allocatePrefixed(id, tokens, group, prefix)
			case 5, 6:
				grow := m.Tokens(id) + int(ops[2]%40)
				if ops[0]&0x80 == 0 {
					err = m.Grow(id, grow)
				} else { // through a cached, possibly stale handle
					if ops[1]&0x80 != 0 {
						handles[id] = m.Handle(id)
					}
					err = m.GrowHandle(handles[id], id, grow)
				}
				rerr = r.grow(id, grow)
			case 7, 8:
				err, rerr = m.Release(id), r.release(id)
			case 9:
				got, err = m.SwapOut(id)
				want, rerr = r.swapOut(id)
			case 10:
				got, err = m.SwapIn(id)
				want, rerr = r.swapIn(id)
			case 11:
				err, rerr = m.AllocateBackup(id, tokens), r.allocateBackup(id, tokens)
			case 12:
				if ops[1]%4 == 0 {
					m.Reset()
					r.reset()
				} else {
					err, rerr = m.PromoteBackup(id), r.promoteBackup(id)
				}
			}
			if fmt.Sprint(err) != fmt.Sprint(rerr) || got != want {
				t.Fatalf("op %v: got (%v, %v), reference (%v, %v)", ops[:4], got, err, want, rerr)
			}
			if err := agree(m, r); err != nil {
				t.Fatalf("after op %v: %v", ops[:4], err)
			}
		}
	})
}

// agree compares every observable of m with the reference model r.
func agree(m *Manager, r *refManager) error {
	if m.Stats() != r.stats {
		return fmt.Errorf("stats %+v, reference %+v", m.Stats(), r.stats)
	}
	if m.gpuFree != r.gpuFree || m.cpuFree != r.cpuFree {
		return fmt.Errorf("free %d/%d, reference %d/%d", m.gpuFree, m.cpuFree, r.gpuFree, r.cpuFree)
	}
	g, h := m.PrefixBlocks()
	if rg, rh := r.prefixBlocks(); g != rg || h != rh {
		return fmt.Errorf("prefix blocks %d/%d, reference %d/%d", g, h, rg, rh)
	}
	for g := uint64(0); g < 4; g++ {
		for _, p := range []int{0, 40, 256} {
			if a, b := m.PeekPrefix(g, p), r.peekPrefix(g, p); a != b {
				return fmt.Errorf("PeekPrefix(%d, %d) = %d, reference %d", g, p, a, b)
			}
		}
	}
	if len(m.tables) != len(r.tables) {
		return fmt.Errorf("%d tables, reference %d", len(m.tables), len(r.tables))
	}
	for id, t := range m.tables {
		if rt := r.tables[id]; rt == nil || *rt != *t {
			return fmt.Errorf("request %d: table %+v, reference %+v", id, *t, rt)
		}
	}
	return m.check()
}

// BenchmarkPrefixEvict times one acquire–release cycle against a pool of
// n idle one-block chains filling the GPU, with one more on the host
// tier. Each cycle hits the host-resident chain, so restoring it demotes
// exactly one block: the next chain in LRU order, which the following
// cycle hits in turn. A whole-pool scan makes this O(n); the chain heaps
// make it O(log n).
func BenchmarkPrefixEvict(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("idle=%d", n), func(b *testing.B) {
			m := MustNew((n+1)*16, 2*16, 16)
			m.EnablePrefixCache(true)
			cycle := func(i int) {
				group := uint64(i%(n+1)) + 1
				if _, err := m.AllocatePrefixed(1, 17, group, 16); err != nil {
					b.Fatal(err)
				}
				if err := m.Release(1); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i <= n; i++ {
				cycle(i)
			}
			before := m.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(n + 1 + i)
			}
			b.StopTimer()
			st := m.Stats()
			if d := st.PrefixDemotions - before.PrefixDemotions; d != uint64(b.N) || st.PrefixEvictions != 0 {
				b.Fatalf("%d demotions, %d evictions in %d cycles; want one demotion each", d, st.PrefixEvictions, b.N)
			}
		})
	}
}
