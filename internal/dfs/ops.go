package dfs

import (
	"dyrs/internal/cluster"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// This file holds the pooled operations of the block I/O path. Each op
// carries one read, one WriteBlocks call or one MigrateToMemory transfer
// from its first flow to its completion callback; its flow callbacks are
// method values bound once, when the op is first allocated, so a
// steady-state read, write or migration allocates nothing.
//
// Reuse contract: an op's last leg recycles the op before it calls the
// caller's done, so a done that issues the next read, write or
// migration may get the same op back. Nothing touches an op after it is
// recycled.

// maxFreeOps caps each op pool, as maxFreeEvents caps the engine's: past
// a burst of concurrent operations, drained ops beyond the cap are left
// to the garbage collector.
const maxFreeOps = 1 << 13

// freeList is a pool of recycled ops.
type freeList[T any] []*T

// get pops a recycled op, or returns nil when none is free.
func (l *freeList[T]) get() *T {
	n := len(*l)
	if n == 0 {
		return nil
	}
	op := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return op
}

// put recycles op unless the pool is full.
func (l *freeList[T]) put(op *T) {
	if len(*l) < maxFreeOps {
		*l = append(*l, op)
	}
}

// readOp is one in-flight block read: the latency timer, then one flow
// per leg (the serving device, plus the core switch on a cross-rack
// transfer), then the result.
type readOp struct {
	fs      *FS
	at      cluster.NodeID
	id      BlockID
	start   sim.Time
	size    sim.Bytes
	done    func(ReadResult)
	span    trace.SpanRef
	src     ReadSource
	server  cluster.NodeID
	legs    [2]*sim.Resource // legs[1] is nil for a one-leg transfer
	pending int

	launch  func()          // the latency timer's callback: admits the legs
	legDone func(*sim.Flow) // every leg's completion callback
}

// newReadOp takes an op from the pool, or allocates one, and fills in
// the read's identity. The caller sets src, server and the legs.
func (fs *FS) newReadOp(at cluster.NodeID, id BlockID, start sim.Time, size sim.Bytes,
	done func(ReadResult), sp trace.SpanRef) *readOp {
	op := fs.readPool.get()
	if op == nil {
		op = &readOp{fs: fs}
		op.launch = op.admit
		op.legDone = op.finishLeg
	}
	op.at, op.id, op.start, op.size, op.done, op.span = at, id, start, size, done, sp
	return op
}

// setTransferLegs sets the legs of a remote transfer from op.server to
// the reader: the serving device plus, when the nodes are on different
// racks and the core is modeled, the core switch.
func (op *readOp) setTransferLegs(serving *sim.Resource) {
	op.legs[0] = serving
	if !op.fs.cl.SameRack(op.at, op.server) {
		op.legs[1] = op.fs.cl.Core()
	}
}

// admit starts one flow per leg, in leg order; the read completes when
// the slowest leg finishes. This models a path of independent
// bottlenecks conservatively without coupled-rate bookkeeping.
func (op *readOp) admit() {
	op.pending = 1
	if op.legs[1] != nil {
		op.pending = 2
	}
	for _, leg := range op.legs[:op.pending] {
		leg.Start(op.size, op.legDone)
	}
}

// finishLeg counts a leg's completion; the last one records the read,
// recycles the op and then hands the result to done.
func (op *readOp) finishLeg(*sim.Flow) {
	op.pending--
	if op.pending > 0 {
		return
	}
	fs := op.fs
	res := ReadResult{Block: op.id, Source: op.src, Server: op.server, Started: op.start, Finished: fs.eng.Now()}
	fs.hReadLat.Observe(int64(res.Duration()))
	if fs.tr.Enabled() {
		fs.tr.Add(op.src.bytesCounter(), op.size)
		fs.tr.Inc(op.src.countCounter())
		op.span.End(trace.Str("source", op.src.String()), trace.Int("server", int64(op.server)))
	}
	done := op.done
	op.done, op.span, op.legs = nil, trace.SpanRef{}, [2]*sim.Resource{}
	fs.readPool.put(op)
	if done != nil {
		done(res)
	}
}

// migrateOp is one MigrateToMemory transfer in flight: a single flow on
// the node's disk whose completion registers the in-memory
// replica. A cancelled transfer's op never completes and is left to the
// garbage collector, as the cancelled flow is.
type migrateOp struct {
	fs      *FS
	node    cluster.NodeID
	id      BlockID
	start   sim.Time
	done    func(sim.Duration)
	legDone func(*sim.Flow) // the flow's completion callback
}

// newMigrateOp takes an op from the pool, or allocates one.
func (fs *FS) newMigrateOp(node cluster.NodeID, id BlockID, done func(sim.Duration)) *migrateOp {
	op := fs.migratePool.get()
	if op == nil {
		op = &migrateOp{fs: fs}
		op.legDone = op.finish
	}
	op.node, op.id, op.start, op.done = node, id, fs.eng.Now(), done
	return op
}

// finish registers the replica, recycles the op and then hands the
// transfer's duration to done.
func (op *migrateOp) finish(*sim.Flow) {
	fs := op.fs
	fs.RegisterMem(op.id, op.node)
	d := fs.eng.Now().Sub(op.start)
	done := op.done
	op.done = nil
	fs.migratePool.put(op)
	if done != nil {
		done(d)
	}
}

// writeOp is one WriteBlocks call in flight. It counts the call's
// blocks still streaming; the last one to land completes the write.
type writeOp struct {
	fs        *FS
	done      func()
	pending   int
	blockDone func(*sim.Flow) // every block's completion callback
}

// newWriteOp takes an op from the pool, or allocates one.
func (fs *FS) newWriteOp(done func()) *writeOp {
	op := fs.writePool.get()
	if op == nil {
		op = &writeOp{fs: fs}
		op.blockDone = op.finishBlock
	}
	op.done = done
	return op
}

// startBlock streams one block of size bytes onto disk.
func (op *writeOp) startBlock(disk *sim.Resource, size sim.Bytes) {
	op.pending++
	disk.Start(size, op.blockDone)
}

// finishBlock counts a block's completion; the last one recycles the op
// and then runs done.
func (op *writeOp) finishBlock(*sim.Flow) {
	op.pending--
	if op.pending > 0 {
		return
	}
	done := op.done
	op.done = nil
	op.fs.writePool.put(op)
	if done != nil {
		done()
	}
}
