package pds

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
)

// Map is the durably-linearizable persistent hash map: chained buckets
// with lock-free CAS insertion at bucket heads, in-place value updates,
// tombstone deletes, and CCEH-style out-of-place resize — the new table is
// built and persisted completely, then one durable root-pointer store
// switches to it, so a crash at any point recovers to a whole table (the
// old one until the switch persists, the new one after).
//
// Concurrency contract: Put/Delete/Get are safe from any number of
// threads. Resize requires writer quiescence (a single-writer instance,
// as in the kvservice shards): it copies nodes out of place precisely so
// that a crash mid-migration leaves the old table untouched, but it does
// not defend against racing writers.
//
// Root line: [magic, tablePtr]. Table: [magic, nbuckets, bucket0...].
// Node (one line): [magic, key, val, next, dead].
type Map struct {
	root  memory.Addr
	heaps []*palloc.Arena
	// puts counts successful inserts per thread (tombstones not
	// subtracted), host-side bookkeeping for resize decisions. Each
	// thread touches only its own slot.
	puts []int
}

const (
	hmOffTable = 8

	hmOffBuckets = 8
	hmOffBucket0 = 16

	hmOffKey  = 8
	hmOffVal  = 16
	hmOffNext = 24
	hmOffDead = 32
	hmNodeLen = 40
)

func hmTableLen(buckets uint64) uint64 { return hmOffBucket0 + 8*buckets }

// NewMap writes the initial durable image (root plus an empty table of
// buckets bucket-head cells) at Setup time. Each of threads gets a private
// node heap sized for nodesPerThread inserts plus that thread's share of
// resize copies.
func NewMap(mem *memory.Memory, arena *palloc.Arena, threads, nodesPerThread int, buckets uint64) *Map {
	m := &Map{root: arena.Alloc(16), puts: make([]int, threads)}
	table := arena.Alloc(hmTableLen(buckets))
	mem.Poke64(table, magicMapTable)
	mem.Poke64(table+hmOffBuckets, buckets)
	for i := uint64(0); i < buckets; i++ {
		mem.Poke64(table+hmOffBucket0+memory.Addr(8*i), 0)
	}
	mem.Poke64(m.root, magicMapRoot)
	mem.Poke64(m.root+hmOffTable, uint64(table))
	for t := 0; t < threads; t++ {
		m.heaps = append(m.heaps, arena.Sub(uint64(nodesPerThread)*memory.LineSize))
	}
	return m
}

// Base returns the root address, where a recovery walk starts.
func (m *Map) Base() memory.Addr { return m.root }

// bucketCell returns the head cell of key's bucket in the table at ta.
func bucketCell(e cpu.Env, ta memory.Addr, key uint64) memory.Addr {
	nb := cpu.Load64(e, ta+hmOffBuckets)
	return ta + hmOffBucket0 + memory.Addr(8*(hashKey(key)%nb))
}

// lookup walks key's chain in the table at ta, returning the node address
// (0 if absent, tombstoned nodes included when dead is true).
func lookup(e cpu.Env, ta memory.Addr, key uint64) (node memory.Addr, dead bool) {
	cur := memory.Addr(cpu.Load64(e, bucketCell(e, ta, key)))
	for cur != 0 {
		if cpu.Load64(e, cur+hmOffKey) == key {
			return cur, cpu.Load64(e, cur+hmOffDead) != 0
		}
		cur = memory.Addr(cpu.Load64(e, cur+hmOffNext))
	}
	return 0, false
}

// Get returns key's value if present and live.
func (m *Map) Get(e cpu.Env, key uint64) (uint64, bool) {
	ta := memory.Addr(LoadP(e, m.root+hmOffTable))
	n, dead := lookup(e, ta, key)
	if n == 0 || dead {
		return 0, false
	}
	return cpu.Load64(e, n+hmOffVal), true
}

// Put inserts or updates key. An update is one durable in-place cell
// store; an insert seals and fences a fresh node, then publishes it at the
// bucket head with a durable CAS.
func (m *Map) Put(e cpu.Env, tid int, key, val uint64) {
	ta := memory.Addr(LoadP(e, m.root+hmOffTable))
	if n, dead := lookup(e, ta, key); n != 0 && !dead {
		StoreP(e, n+hmOffVal, val)
		DrainP(e)
		return
	}
	n := m.heaps[tid].Alloc(hmNodeLen)
	cpu.Store64(e, n+hmOffKey, key)
	cpu.Store64(e, n+hmOffVal, val)
	cpu.Store64(e, n+hmOffDead, 0)
	cell := bucketCell(e, ta, key)
	for {
		head := cpu.Load64(e, cell)
		cpu.Store64(e, n+hmOffNext, head)
		StoreP(e, n, magicMapNode) // seal: the node is one line
		DrainP(e)                  // node durable before it becomes reachable
		//bbbvet:commit-store n
		if _, ok := CASP(e, cell, head, uint64(n)); ok {
			m.puts[tid]++
			return
		}
	}
}

// Delete tombstones key (one durable cell store), returning whether it was
// present and live.
func (m *Map) Delete(e cpu.Env, key uint64) bool {
	ta := memory.Addr(LoadP(e, m.root+hmOffTable))
	n, dead := lookup(e, ta, key)
	if n == 0 || dead {
		return false
	}
	StoreP(e, n+hmOffDead, 1)
	DrainP(e)
	return true
}

// LoadFactor returns inserts-per-bucket for the current table, from the
// host-side insert counts.
func (m *Map) LoadFactor(e cpu.Env) float64 {
	ta := memory.Addr(cpu.Load64(e, m.root+hmOffTable))
	nb := cpu.Load64(e, ta+hmOffBuckets)
	total := 0
	for _, n := range m.puts {
		total += n
	}
	return float64(total) / float64(nb)
}

// Resize doubles the table out of place: build the new table, copy every
// live node into it (the old table is never touched, so a crash
// mid-migration recovers to it intact), persist every written line with
// one barrier, then publish the new table with a single durable root
// store. Requires writer quiescence — see the type comment.
func (m *Map) Resize(e cpu.Env, tid int) {
	ta := memory.Addr(cpu.Load64(e, m.root+hmOffTable))
	nb := cpu.Load64(e, ta+hmOffBuckets)
	newNB := nb * 2
	nt := m.heaps[tid].Alloc(hmTableLen(newNB))
	var lines []memory.Addr
	for a := nt; a < nt+memory.Addr(hmTableLen(newNB)); a += memory.LineSize {
		lines = append(lines, a)
	}
	cpu.Store64(e, nt+hmOffBuckets, newNB)
	for i := uint64(0); i < newNB; i++ {
		cpu.Store64(e, nt+hmOffBucket0+memory.Addr(8*i), 0)
	}
	for i := uint64(0); i < nb; i++ {
		cur := memory.Addr(cpu.Load64(e, ta+hmOffBucket0+memory.Addr(8*i)))
		for cur != 0 {
			if cpu.Load64(e, cur+hmOffDead) == 0 {
				key := cpu.Load64(e, cur+hmOffKey)
				cp := m.heaps[tid].Alloc(hmNodeLen)
				ncell := nt + hmOffBucket0 + memory.Addr(8*(hashKey(key)%newNB))
				cpu.Store64(e, cp+hmOffKey, key)
				cpu.Store64(e, cp+hmOffVal, cpu.Load64(e, cur+hmOffVal))
				cpu.Store64(e, cp+hmOffDead, 0)
				cpu.Store64(e, cp+hmOffNext, cpu.Load64(e, ncell))
				cpu.Store64(e, cp, magicMapNode)
				cpu.Store64(e, ncell, uint64(cp))
				lines = append(lines, cp)
			}
			cur = memory.Addr(cpu.Load64(e, cur+hmOffNext))
		}
	}
	cpu.Store64(e, nt, magicMapTable) // seal the table header
	// One barrier persists the whole new table: N clwbs + one sfence
	// under PMEM, one epoch mark under BEP, nothing under the batteries.
	cpu.PersistBarrier(e, lines...)
	//bbbvet:commit-store lines
	StoreP(e, m.root+hmOffTable, uint64(nt))
	DrainP(e) // the switch is durable before Resize returns
}

// MapImage is RecoverMap's view of a crash image.
type MapImage struct {
	// Live maps surviving live keys to values; Dead holds tombstoned keys.
	Live map[uint64]uint64
	Dead map[uint64]bool
	// Buckets is the recovered table's bucket count.
	Buckets uint64
}

// RecoverMap validates the durable image: the root must point at a sealed
// table, and every node reachable from it must be sealed, in the bucket
// its key hashes to, with an intact chain. A crash during Resize must
// leave the old table fully intact (out-of-place migration), so recovery
// never sees a half-migrated table.
func RecoverMap(mem *memory.Memory, root memory.Addr) (MapImage, error) {
	img := MapImage{Live: map[uint64]uint64{}, Dead: map[uint64]bool{}}
	if m := mem.Peek64(root); m != magicMapRoot {
		return img, fmt.Errorf("pds/map: root %#x not sealed (magic %#x)", root, m)
	}
	ta := memory.Addr(mem.Peek64(root + hmOffTable))
	if m := mem.Peek64(ta); m != magicMapTable {
		return img, fmt.Errorf("pds/map: root points at unsealed table %#x (magic %#x)", ta, m)
	}
	nb := mem.Peek64(ta + hmOffBuckets)
	if nb == 0 || nb > 1<<20 {
		return img, fmt.Errorf("pds/map: implausible bucket count %d", nb)
	}
	img.Buckets = nb
	seen := map[memory.Addr]bool{}
	for i := uint64(0); i < nb; i++ {
		cur := memory.Addr(mem.Peek64(ta + hmOffBucket0 + memory.Addr(8*i)))
		for cur != 0 {
			if seen[cur] {
				return img, fmt.Errorf("pds/map: node %#x reachable twice", cur)
			}
			seen[cur] = true
			if m := mem.Peek64(cur); m != magicMapNode {
				return img, fmt.Errorf("pds/map: node %#x reachable but not sealed (magic %#x)", cur, m)
			}
			key := mem.Peek64(cur + hmOffKey)
			if hashKey(key)%nb != i {
				return img, fmt.Errorf("pds/map: key %d found in bucket %d, hashes to %d", key, i, hashKey(key)%nb)
			}
			if _, dup := img.Live[key]; !dup && !img.Dead[key] {
				if mem.Peek64(cur+hmOffDead) != 0 {
					img.Dead[key] = true
				} else {
					img.Live[key] = mem.Peek64(cur + hmOffVal)
				}
			}
			cur = memory.Addr(mem.Peek64(cur + hmOffNext))
		}
	}
	return img, nil
}
