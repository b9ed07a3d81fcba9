package pds

import (
	"fmt"
	"math/bits"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
)

// slMaxHeight keeps a node (magic, key, val, height, next[4]) in one cache
// line, so sealing a node is a single write-back.
const slMaxHeight = 4

// List is the durably-linearizable persistent skiplist: a lock-free
// insert-only skiplist (values update in place) whose level-0 chain is the
// durable truth and whose upper levels are index state. A node is sealed
// and fenced before the level-0 CAS publishes it; upper-level links attach
// afterwards, each with its own durable CAS, so a crash mid-tower leaves a
// node reachable at the levels already linked — the recovery walk only
// demands that every level's chain is sorted, sealed and consistent with
// level 0.
//
// Tower heights are deterministic (derived from the key's hash), so runs
// replay identically.
//
// Head line: [magic, next[0..3]]. Node line: [magic, key, val, height,
// next[0..height-1]].
type List struct {
	head  memory.Addr
	heaps []*palloc.Arena
}

const (
	slOffNext0 = 8 // head: next cells start at +8

	slOffKey    = 8
	slOffVal    = 16
	slOffHeight = 24
	slOffLink0  = 32
	slNodeLen   = 32 + 8*slMaxHeight
)

// Height returns key's deterministic tower height: a geometric(1/2)
// distribution read off the key's hash bits.
func Height(key uint64) int {
	h := 1 + bits.TrailingZeros64(hashKey(key)|1<<(slMaxHeight-1))
	if h > slMaxHeight {
		h = slMaxHeight
	}
	return h
}

// NewList writes the initial durable image (the head tower, all levels
// empty) at Setup time, with a private node heap per thread.
func NewList(mem *memory.Memory, arena *palloc.Arena, threads, nodesPerThread int) *List {
	l := &List{head: arena.Alloc(8 + 8*slMaxHeight)}
	mem.Poke64(l.head, magicListHead)
	for i := 0; i < slMaxHeight; i++ {
		mem.Poke64(l.head+slOffNext0+memory.Addr(8*i), 0)
	}
	for t := 0; t < threads; t++ {
		l.heaps = append(l.heaps, arena.Sub(uint64(nodesPerThread)*memory.LineSize))
	}
	return l
}

// Base returns the head address, where a recovery walk starts.
func (l *List) Base() memory.Addr { return l.head }

// linkCell returns the level-i next cell of node n (or of the head).
func (l *List) linkCell(n memory.Addr, i int) memory.Addr {
	if n == l.head {
		return l.head + slOffNext0 + memory.Addr(8*i)
	}
	return n + slOffLink0 + memory.Addr(8*i)
}

// search returns, per level, the last node with key < target (preds) and
// its successor (succs). Loads only.
func (l *List) search(e cpu.Env, key uint64) (preds, succs [slMaxHeight]memory.Addr) {
	cur := l.head
	for i := slMaxHeight - 1; i >= 0; i-- {
		for {
			next := memory.Addr(cpu.Load64(e, l.linkCell(cur, i)))
			if next != 0 && cpu.Load64(e, next+slOffKey) < key {
				cur = next
				continue
			}
			preds[i], succs[i] = cur, next
			break
		}
	}
	return preds, succs
}

// Get returns key's value if present.
func (l *List) Get(e cpu.Env, key uint64) (uint64, bool) {
	_, succs := l.search(e, key)
	if succs[0] != 0 && cpu.Load64(e, succs[0]+slOffKey) == key {
		return cpu.Load64(e, succs[0]+slOffVal), true
	}
	return 0, false
}

// Scan walks level 0 from the first key >= from, returning up to max
// (key, value) pairs — the service tier's range query.
func (l *List) Scan(e cpu.Env, from uint64, max int) (keys, vals []uint64) {
	_, succs := l.search(e, from)
	cur := succs[0]
	for cur != 0 && len(keys) < max {
		keys = append(keys, cpu.Load64(e, cur+slOffKey))
		vals = append(vals, cpu.Load64(e, cur+slOffVal))
		cur = memory.Addr(cpu.Load64(e, l.linkCell(cur, 0)))
	}
	return keys, vals
}

// Insert adds key (or updates its value in place). The node is sealed and
// fenced before the level-0 CAS makes it reachable; each upper level is a
// separate durable link, so a crash leaves a valid partial tower.
func (l *List) Insert(e cpu.Env, tid int, key, val uint64) {
	ht := Height(key)
	var n memory.Addr
	var preds, succs [slMaxHeight]memory.Addr
	for {
		preds, succs = l.search(e, key)
		if succs[0] != 0 && cpu.Load64(e, succs[0]+slOffKey) == key {
			StoreP(e, succs[0]+slOffVal, val)
			DrainP(e)
			return
		}
		if n == 0 {
			n = l.heaps[tid].Alloc(slNodeLen)
		}
		cpu.Store64(e, n+slOffKey, key)
		cpu.Store64(e, n+slOffVal, val)
		cpu.Store64(e, n+slOffHeight, uint64(ht))
		for i := 0; i < ht; i++ {
			cpu.Store64(e, n+slOffLink0+memory.Addr(8*i), uint64(succs[i]))
		}
		StoreP(e, n, magicListNode) // seal: the node is one line
		DrainP(e)                   // node durable before it becomes reachable
		//bbbvet:commit-store n
		if _, ok := CASP(e, l.linkCell(preds[0], 0), uint64(succs[0]), uint64(n)); ok {
			break
		}
	}
	for i := 1; i < ht; i++ {
		for {
			//bbbvet:commit-store n
			if _, ok := CASP(e, l.linkCell(preds[i], i), uint64(succs[i]), uint64(n)); ok {
				break
			}
			// Lost the race at this level: re-find the neighborhood and
			// re-point the node's level-i link durably before retrying.
			preds, succs = l.search(e, key)
			if succs[i] == n {
				break // a helper already linked us here
			}
			StoreP(e, n+slOffLink0+memory.Addr(8*i), uint64(succs[i]))
			DrainP(e)
		}
	}
}

// ListImage is RecoverList's view of a crash image.
type ListImage struct {
	// Keys/Vals hold the level-0 chain in order.
	Keys, Vals []uint64
}

// RecoverList validates the durable image: every level's chain must be
// sorted, strictly increasing and sealed; upper levels must be
// subsequences of level 0 linking only nodes tall enough to appear there.
func RecoverList(mem *memory.Memory, head memory.Addr) (ListImage, error) {
	var img ListImage
	if m := mem.Peek64(head); m != magicListHead {
		return img, fmt.Errorf("pds/list: head %#x not sealed (magic %#x)", head, m)
	}
	onLevel0 := map[memory.Addr]bool{}
	for i := 0; i < slMaxHeight; i++ {
		var last uint64
		first := true
		seen := map[memory.Addr]bool{}
		cur := memory.Addr(mem.Peek64(head + slOffNext0 + memory.Addr(8*i)))
		for cur != 0 {
			if seen[cur] {
				return img, fmt.Errorf("pds/list: level %d cycles through %#x", i, cur)
			}
			seen[cur] = true
			if m := mem.Peek64(cur); m != magicListNode {
				return img, fmt.Errorf("pds/list: node %#x reachable at level %d but not sealed (magic %#x)", cur, i, m)
			}
			key := mem.Peek64(cur + slOffKey)
			ht := mem.Peek64(cur + slOffHeight)
			if ht == 0 || ht > slMaxHeight {
				return img, fmt.Errorf("pds/list: node %#x has height %d", cur, ht)
			}
			if uint64(i) >= ht {
				return img, fmt.Errorf("pds/list: node %#x (height %d) linked at level %d", cur, ht, i)
			}
			if ht != uint64(Height(key)) {
				return img, fmt.Errorf("pds/list: node %#x height %d, key %d derives %d", cur, ht, key, Height(key))
			}
			if !first && key <= last {
				return img, fmt.Errorf("pds/list: level %d not strictly increasing at key %d", i, key)
			}
			if i == 0 {
				onLevel0[cur] = true
				img.Keys = append(img.Keys, key)
				img.Vals = append(img.Vals, mem.Peek64(cur+slOffVal))
			} else if !onLevel0[cur] {
				return img, fmt.Errorf("pds/list: node %#x on level %d but not on level 0", cur, i)
			}
			last, first = key, false
			cur = memory.Addr(mem.Peek64(cur + slOffLink0 + memory.Addr(8*(uint64(i)))))
		}
	}
	return img, nil
}
