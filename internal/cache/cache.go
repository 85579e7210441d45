// Package cache implements a PACMan-style coordinated in-memory block
// cache over the simulated DFS. It exists as a comparison point: caching
// accelerates repeatedly-read (hot) data but cannot help the ~30% of
// tasks that read singly-accessed cold data (paper §I, §VI) — the gap
// DYRS fills. The cache and DYRS compose: the cache keeps hot blocks
// resident after their first read, while DYRS pre-loads cold inputs
// before their only read.
package cache

import (
	"fmt"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// EvictPolicy names the cache's eviction order. LRU is the only one;
// the type and New's policy parameter remain because the benchmark
// module passes cache.LRU to New.
type EvictPolicy int

// LRU evicts the least recently used block.
const LRU EvictPolicy = 0

// String names the policy.
func (p EvictPolicy) String() string { return "LRU" }

// entry tracks one cached block. Entries sit on their node's LRU list,
// an intrusive doubly linked list, and are recycled through Cache.free
// once evicted, so steady-state caching allocates nothing.
type entry struct {
	id         dfs.BlockID
	size       sim.Bytes
	node       cluster.NodeID
	prev, next *entry // toward the more / less recently used neighbour
}

// nodeLRU is one node's cached blocks, most recently used at head.
type nodeLRU struct {
	head, tail *entry
	used       sim.Bytes
}

// pushFront links e in as the node's most recently used entry.
func (l *nodeLRU) pushFront(e *entry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

// unlink removes e from the list.
func (l *nodeLRU) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Cache is a cluster-wide coordinated cache. It watches every block read
// via the DFS read hook: hits are reads already redirected to a resident
// replica; misses insert the block at the reading node after the read,
// evicting the node's least recently used blocks when the per-node
// budget is exceeded.
type Cache struct {
	fs      *dfs.FS
	perNode sim.Bytes
	nodes   []nodeLRU        // indexed by node
	byBlock []*entry         // indexed by block; nil when not cached
	free    *entry           // recycled entries, linked through next
	repBuf  []cluster.NodeID // scratch for placement

	// Stats.
	Hits, Misses, Insertions, Evictions int
}

// New attaches a cache to the file system with the given per-node memory
// budget. Eviction is always LRU.
func New(fs *dfs.FS, perNodeBudget sim.Bytes, _ EvictPolicy) (*Cache, error) {
	if perNodeBudget <= 0 {
		return nil, fmt.Errorf("cache: per-node budget must be positive")
	}
	c := &Cache{
		fs:      fs,
		perNode: perNodeBudget,
		nodes:   make([]nodeLRU, fs.Cluster().Size()),
	}
	if err := fs.OnRead(c.onRead); err != nil {
		return nil, err
	}
	return c, nil
}

// lookup returns the block's entry, or nil when it is not cached.
func (c *Cache) lookup(id dfs.BlockID) *entry {
	if int(id) < len(c.byBlock) {
		return c.byBlock[int(id)]
	}
	return nil
}

// onRead observes every block read.
func (c *Cache) onRead(id dfs.BlockID, at cluster.NodeID) {
	if e := c.lookup(id); e != nil {
		// Validate: another subsystem (e.g. DYRS implicit eviction) may
		// have dropped the underlying replica.
		if c.fs.DataNode(e.node).HasMem(id) {
			c.Hits++
			l := &c.nodes[int(e.node)]
			l.unlink(e)
			l.pushFront(e)
			return
		}
		c.remove(e, false)
	}
	c.Misses++
	c.insert(id, at)
}

// insert caches the block on a disk-replica holder, evicting as needed.
// Memory replicas live where the block resides on disk (the PACMan
// model, and the DFS structural invariant): the holder nearest the
// reader — the reader itself when it holds a replica — keeps the block
// buffered, and the cluster-wide read redirect serves later readers
// from there wherever they run.
func (c *Cache) insert(id dfs.BlockID, at cluster.NodeID) {
	size := c.fs.BlockSize(id)
	if size > c.perNode {
		return // would never fit
	}
	node, ok := c.placement(id, at)
	if !ok {
		return // no live disk replica to anchor to
	}
	l := &c.nodes[int(node)]
	for l.used+size > c.perNode {
		if !c.evictOne(node) {
			return // nothing evictable on this node
		}
	}
	// If the block is already resident elsewhere (e.g. a DYRS migration
	// placed it), don't double-cache; count residency only.
	if _, resident := c.fs.MemReplica(id); resident {
		return
	}
	c.fs.RegisterMem(id, node)
	e := c.free
	if e != nil {
		c.free = e.next
	} else {
		e = &entry{}
	}
	*e = entry{id: id, size: size, node: node}
	l.pushFront(e)
	if int(id) >= len(c.byBlock) {
		grown := make([]*entry, c.fs.NumBlocks())
		copy(grown, c.byBlock)
		c.byBlock = grown
	}
	c.byBlock[int(id)] = e
	l.used += size
	c.Insertions++
}

// placement picks the node to buffer the block on: the reading node if
// it holds a live disk replica, otherwise the first live replica holder
// in registry order (deterministic).
func (c *Cache) placement(id dfs.BlockID, at cluster.NodeID) (cluster.NodeID, bool) {
	live := c.fs.LiveReplicas(id, c.repBuf[:0])
	c.repBuf = live
	for _, r := range live {
		if r == at {
			return at, true
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	return live[0], true
}

// evictOne removes the given node's least recently used block.
// Reports whether anything was evicted.
func (c *Cache) evictOne(node cluster.NodeID) bool {
	victim := c.nodes[int(node)].tail
	if victim == nil {
		return false
	}
	c.remove(victim, true)
	return true
}

// remove deletes an entry, optionally dropping the replica from the DFS
// registry (stale entries skip the drop: the replica is already gone),
// and recycles it.
func (c *Cache) remove(e *entry, dropReplica bool) {
	if dropReplica {
		c.fs.DropMem(e.id, e.node)
		c.Evictions++
	}
	l := &c.nodes[int(e.node)]
	l.unlink(e)
	l.used -= e.size
	c.byBlock[int(e.id)] = nil
	*e = entry{next: c.free}
	c.free = e
}

// Flush drops every cached block, node by node, most recent first.
func (c *Cache) Flush() {
	for i := range c.nodes {
		for e := c.nodes[i].head; e != nil; e = c.nodes[i].head {
			c.fs.DropMem(e.id, e.node)
			c.remove(e, false)
		}
	}
}

// HitRate reports hits / (hits + misses).
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
