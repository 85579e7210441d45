// Package dfs implements the big-data file system substrate: an HDFS-like
// master-slave file system with a NameNode block catalog, DataNodes that
// serve block reads from disk or from an in-memory buffer, 3-way replica
// placement, and the read-redirection hook DYRS uses to steer reads to
// in-memory replicas (paper §III, §IV).
//
// The NameNode catalog is stored as a struct-of-arrays block table (see
// blocktable.go) with per-node replica postings, so the metadata for
// millions of blocks fits in a few flat arrays instead of per-block heap
// objects and maps. Public accessors that return *Block materialize a
// view on demand; hot paths use the ID-based accessors (BlockSize,
// LiveReplicas, FileBlockIDs) which do not allocate.
package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// BlockID identifies a block in the file system.
type BlockID int

// maxBlockBytes bounds a single block so its size fits the table's
// uint32 column. HDFS-era block sizes are 64-512 MB; 4 GiB-1 is far
// above anything the model produces.
const maxBlockBytes = sim.Bytes(1<<32 - 1)

// Block is one fixed-size chunk of a file, replicated on several nodes.
//
// Block values are materialized views over the block table, built on
// demand by Block/FileBlocks; mutating one does not change the catalog.
type Block struct {
	ID       BlockID
	File     string
	Index    int // position within the file
	Size     sim.Bytes
	Replicas []cluster.NodeID // replica locations at materialization time
}

// File is a named sequence of blocks. Blocks are assigned consecutive
// IDs at creation, so Blocks[i] == Blocks[0]+i always holds.
type File struct {
	Name   string
	Size   sim.Bytes
	Blocks []BlockID
}

// Config holds file-system parameters.
type Config struct {
	// BlockSize is the maximum block size (HDFS default in the paper's
	// era: 256 MB for large inputs).
	BlockSize sim.Bytes
	// Replication is the number of disk replicas per block.
	Replication int
	// ReadLatency is the fixed per-read setup latency (RPC + open).
	ReadLatency sim.Duration
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: 256 MB blocks, 3-way replication.
func DefaultConfig() Config {
	return Config{
		BlockSize:   256 * sim.MB,
		Replication: 3,
		ReadLatency: 2 * sim.Duration(1e6), // 2ms
	}
}

// ReadSource describes where a block read was served from.
type ReadSource int

// Read sources, fastest last.
const (
	SourceDiskLocal ReadSource = iota
	SourceDiskRemote
	SourceMemLocal
	SourceMemRemote
)

// String names the read source.
func (s ReadSource) String() string {
	switch s {
	case SourceDiskLocal:
		return "disk-local"
	case SourceDiskRemote:
		return "disk-remote"
	case SourceMemLocal:
		return "mem-local"
	case SourceMemRemote:
		return "mem-remote"
	}
	return "unknown"
}

// FromMemory reports whether the source is an in-memory replica.
func (s ReadSource) FromMemory() bool {
	return s == SourceMemLocal || s == SourceMemRemote
}

// bytesCounter names the tracer counter accumulating bytes served from
// this source. Precomputed constants keep the traced read path free of
// string concatenation.
func (s ReadSource) bytesCounter() string {
	switch s {
	case SourceDiskLocal:
		return "read.bytes.disk-local"
	case SourceDiskRemote:
		return "read.bytes.disk-remote"
	case SourceMemLocal:
		return "read.bytes.mem-local"
	case SourceMemRemote:
		return "read.bytes.mem-remote"
	}
	return "read.bytes.unknown"
}

// countCounter names the tracer counter of reads served from this source.
func (s ReadSource) countCounter() string {
	switch s {
	case SourceDiskLocal:
		return "read.count.disk-local"
	case SourceDiskRemote:
		return "read.count.disk-remote"
	case SourceMemLocal:
		return "read.count.mem-local"
	case SourceMemRemote:
		return "read.count.mem-remote"
	}
	return "read.count.unknown"
}

// ReadResult describes a completed block read.
type ReadResult struct {
	Block    BlockID
	Source   ReadSource
	Server   cluster.NodeID // node that served the bytes
	Started  sim.Time
	Finished sim.Time
	// Failed is set when every replica became unreachable before the
	// read could be served (only possible mid-failover; the initial
	// call reports ErrNoReplica synchronously instead).
	Failed bool
}

// Duration reports how long the read took.
func (r ReadResult) Duration() sim.Duration { return r.Finished.Sub(r.Started) }

// DataNode is the per-node storage server: it owns the node's disk for
// block reads and tracks which blocks are resident in its memory buffer.
// Residency itself lives in the block table's memNode/memPos columns;
// the DataNode keeps the node's resident list (for O(1) membership the
// table column is consulted) and the byte accounting.
type DataNode struct {
	fs   *FS
	node *cluster.Node

	// resident lists the blocks buffered on this node, unordered;
	// table.memPos[id] is the block's index here, so insert and remove
	// are O(1) swap operations.
	resident []BlockID
	memUsed  sim.Bytes

	// Counters for the evaluation (Fig. 8 counts reads per DataNode).
	DiskReads     int
	MemReads      int
	RemoteServes  int
	BlocksWritten int
}

// Node returns the underlying cluster node.
func (dn *DataNode) Node() *cluster.Node { return dn.node }

// MemUsed reports bytes of migrated blocks currently buffered.
func (dn *DataNode) MemUsed() sim.Bytes { return dn.memUsed }

// HasMem reports whether the block is resident in this node's buffer.
func (dn *DataNode) HasMem(b BlockID) bool {
	return dn.fs.table.memNode[int(b)] == int32(dn.node.ID)
}

// MemBlockCount reports how many blocks are buffered.
func (dn *DataNode) MemBlockCount() int { return len(dn.resident) }

// placeSampleTries bounds rejection sampling before the picker falls
// back to a deterministic scan from a random offset. With ≤3 replicas
// excluded out of n nodes a try misses with probability at most 3/n, so
// 32 tries leave the scan to adversarial accept fns and the smallest
// clusters, where it keeps placement correct.
const placeSampleTries = 32

// FS is the simulated distributed file system. The NameNode role (file
// and block catalog, replica lookup, in-memory replica registry) is
// implemented directly on FS; DataNodes hold per-node state.
type FS struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	cfg Config
	rng *rand.Rand
	tr  *trace.Tracer // run tracer; nil (no-op) when untraced

	files    map[string]*File
	fileList []*File // index space for the table's fileOf column
	table    *blockTable
	dns      []*DataNode

	// memCount tracks the number of registered in-memory replicas
	// (previously len() of the registry map).
	memCount int

	readHooks []readHook

	// hReadLat is the streaming read-latency histogram handle (nil and
	// no-op when untraced); it aggregates every completed read exactly,
	// independent of span sampling.
	hReadLat *trace.Hist

	// liveness, when enabled, replaces oracle liveness with the
	// NameNode's heartbeat-based (stale) view; failedOvers counts reads
	// that retried after hitting an unreachable node (§III-C2).
	liveness    *liveness
	failedOvers int

	placeCursor int // rotates placement start for balance

	placeBuf    []cluster.NodeID    // scratch for placeReplicas
	repBuf      []cluster.NodeID    // scratch for the read path's replica list
	readPool    freeList[readOp]    // recycled read ops (see ops.go)
	writePool   freeList[writeOp]   // recycled write ops
	migratePool freeList[migrateOp] // recycled MigrateToMemory ops
}

// New creates a file system over the cluster.
func New(cl *cluster.Cluster, cfg Config) *FS {
	if cfg.BlockSize <= 0 || cfg.Replication <= 0 {
		panic("dfs: invalid config")
	}
	if cfg.BlockSize > maxBlockBytes {
		panic(fmt.Sprintf("dfs: block size %d exceeds table limit %d", cfg.BlockSize, int64(maxBlockBytes)))
	}
	if cfg.Replication > cl.Size() {
		panic(fmt.Sprintf("dfs: replication %d exceeds cluster size %d", cfg.Replication, cl.Size()))
	}
	eng := cl.Engine()
	fs := &FS{
		eng:      eng,
		cl:       cl,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(eng.Rand().Int63())),
		tr:       trace.FromEngine(eng),
		files:    make(map[string]*File),
		table:    newBlockTable(cfg.Replication),
		placeBuf: make([]cluster.NodeID, 0, cfg.Replication),
	}
	fs.hReadLat = fs.tr.Hist("read.latency_ns")
	for _, n := range cl.Nodes() {
		fs.dns = append(fs.dns, &DataNode{fs: fs, node: n})
	}
	return fs
}

// Config returns the file system configuration.
func (fs *FS) Config() Config { return fs.cfg }

// Cluster returns the underlying cluster.
func (fs *FS) Cluster() *cluster.Cluster { return fs.cl }

// DataNode returns the DataNode on the given cluster node.
func (fs *FS) DataNode(id cluster.NodeID) *DataNode { return fs.dns[int(id)] }

// errors returned by catalog operations.
var (
	ErrFileExists   = errors.New("dfs: file already exists")
	ErrFileNotFound = errors.New("dfs: file not found")
	ErrNoReplica    = errors.New("dfs: no live replica")
)

// CreateFile registers a file of the given size, splits it into blocks
// and places replicas on disk. Placement mimics HDFS default: replicas
// land on distinct nodes chosen pseudo-randomly, rotating the starting
// node so data spreads evenly.
func (fs *FS) CreateFile(name string, size sim.Bytes) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, ErrFileExists
	}
	if size <= 0 {
		return nil, errors.New("dfs: file size must be positive")
	}
	f := &File{Name: name, Size: size}
	fi := int32(len(fs.fileList))
	nBlocks := int((size + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize)
	fs.table.grow(nBlocks)
	f.Blocks = make([]BlockID, 0, nBlocks)
	remaining := size
	for remaining > 0 {
		bs := fs.cfg.BlockSize
		if remaining < bs {
			bs = remaining
		}
		reps := fs.placeReplicas()
		f.Blocks = append(f.Blocks, fs.table.add(bs, fi, reps))
		remaining -= bs
	}
	fs.files[name] = f
	fs.fileList = append(fs.fileList, f)
	return f, nil
}

// placeReplicas chooses Replication distinct nodes, filling fs.placeBuf
// (valid until the next call). The first replica rotates around the
// cluster (even spread, like writers spread across nodes). On a flat
// cluster the rest are random; on a racked cluster placement follows the
// HDFS default policy: the second replica goes to a different rack than
// the first, the third to the second replica's rack, and any further
// replicas land randomly. Random picks rejection-sample, O(replication)
// expected draws per block whatever the cluster size.
func (fs *FS) placeReplicas() []cluster.NodeID {
	n := fs.cl.Size()
	chosen := fs.placeBuf[:0]

	first := cluster.NodeID(fs.placeCursor % n)
	fs.placeCursor++
	chosen = append(chosen, first)

	eligible := func(id cluster.NodeID) bool {
		for _, c := range chosen {
			if c == id {
				return false
			}
		}
		return true
	}
	any := func(cluster.NodeID) bool { return true }

	// pickSampled rejection-samples the whole cluster; pickFrom samples a
	// candidate list (a rack). Both fall back to a deterministic scan
	// from a random offset.
	pickFrom := func(nodes []cluster.NodeID, accept func(cluster.NodeID) bool) bool {
		m := len(nodes)
		if m == 0 {
			return false
		}
		for try := 0; try < placeSampleTries; try++ {
			id := nodes[fs.rng.Intn(m)]
			if eligible(id) && accept(id) {
				chosen = append(chosen, id)
				return true
			}
		}
		start := fs.rng.Intn(m)
		for i := 0; i < m; i++ {
			id := nodes[(start+i)%m]
			if eligible(id) && accept(id) {
				chosen = append(chosen, id)
				return true
			}
		}
		return false
	}
	pickSampled := func(accept func(cluster.NodeID) bool) bool {
		for try := 0; try < placeSampleTries; try++ {
			id := cluster.NodeID(fs.rng.Intn(n))
			if eligible(id) && accept(id) {
				chosen = append(chosen, id)
				return true
			}
		}
		start := fs.rng.Intn(n)
		for i := 0; i < n; i++ {
			id := cluster.NodeID((start + i) % n)
			if eligible(id) && accept(id) {
				chosen = append(chosen, id)
				return true
			}
		}
		return false
	}

	if fs.cl.Racks() > 1 {
		if len(chosen) < fs.cfg.Replication {
			// Second replica: off the first replica's rack. With many
			// racks almost every sample is acceptable.
			if !pickSampled(func(id cluster.NodeID) bool { return !fs.cl.SameRack(id, first) }) {
				pickSampled(any)
			}
		}
		if len(chosen) < fs.cfg.Replication && len(chosen) >= 2 {
			// Third replica: same rack as the second. Sampling the
			// whole cluster would almost always miss a single rack, so
			// draw from the rack's own node list.
			second := chosen[1]
			if !pickFrom(fs.cl.RackNodes(fs.cl.Rack(second)), any) {
				pickSampled(any)
			}
		}
	}
	for len(chosen) < fs.cfg.Replication {
		if !pickSampled(any) {
			break
		}
	}
	fs.placeBuf = chosen
	return chosen
}

// File looks up a file by name.
func (fs *FS) File(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, ErrFileNotFound
	}
	return f, nil
}

// FileBlocks maps a list of file names to their blocks, in file order —
// the operation the DYRS master performs when it receives a migration
// request for a job's input files. The returned blocks are materialized
// views (one allocation each); scale-sensitive callers should use
// FileBlockIDs with the ID-based accessors instead.
func (fs *FS) FileBlocks(names []string) ([]*Block, error) {
	var out []*Block
	for _, name := range names {
		f, err := fs.File(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %s", err, name)
		}
		for _, id := range f.Blocks {
			out = append(out, fs.Block(id))
		}
	}
	return out, nil
}

// FileBlockIDs maps a list of file names to their block IDs, in file
// order, without materializing Block views.
func (fs *FS) FileBlockIDs(names []string) ([]BlockID, error) {
	total := 0
	for _, name := range names {
		f, err := fs.File(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %s", err, name)
		}
		total += len(f.Blocks)
	}
	out := make([]BlockID, 0, total)
	for _, name := range names {
		out = append(out, fs.files[name].Blocks...)
	}
	return out, nil
}

// Block materializes a view of the block with the given id.
func (fs *FS) Block(id BlockID) *Block {
	f := fs.BlockFile(id)
	return &Block{
		ID:       id,
		File:     f.Name,
		Index:    int(id - f.Blocks[0]),
		Size:     fs.table.blockSize(id),
		Replicas: fs.table.appendReplicas(id, nil),
	}
}

// BlockSize reports the block's length without materializing a view.
func (fs *FS) BlockSize(id BlockID) sim.Bytes { return fs.table.blockSize(id) }

// BlockFile reports the file the block belongs to without materializing
// a view.
func (fs *FS) BlockFile(id BlockID) *File { return fs.fileList[fs.table.fileOf[int(id)]] }

// NumBlocks reports the total number of blocks in the catalog.
func (fs *FS) NumBlocks() int { return fs.table.len() }

// Replicas returns the block's replica locations on nodes the NameNode
// considers available. With heartbeat liveness enabled this view can be
// stale: a freshly dead node is still offered until its heartbeats have
// been missed (§III-C2).
func (fs *FS) Replicas(id BlockID) []cluster.NodeID {
	return fs.LiveReplicas(id, nil)
}

// LiveReplicas appends the block's available replica locations to buf
// and returns it; with a pre-sized buf this allocates nothing. Same
// staleness semantics as Replicas.
func (fs *FS) LiveReplicas(id BlockID, buf []cluster.NodeID) []cluster.NodeID {
	base := int(id) * fs.table.stride
	for i := 0; i < fs.table.stride; i++ {
		if r := fs.table.replicas[base+i]; r >= 0 && fs.nodeAvailable(cluster.NodeID(r)) {
			buf = append(buf, cluster.NodeID(r))
		}
	}
	return buf
}

// MemReplica reports the node holding an in-memory replica of the block,
// if the NameNode considers that node available.
func (fs *FS) MemReplica(id BlockID) (cluster.NodeID, bool) {
	n := fs.table.memNode[int(id)]
	if n < 0 || !fs.nodeAvailable(cluster.NodeID(n)) {
		return 0, false
	}
	return cluster.NodeID(n), true
}

// RegisterMem records that node holds an in-memory replica of the block
// and charges the bytes to the DataNode's buffer accounting. Called by
// the migration slave when a migration completes.
//
// A block has at most one registered memory replica. If a stale copy is
// still buffered on another node — possible when the migration master
// lost its state in a fail-over and re-migrated the block — the stale
// copy is released so the registry and the per-node buffers stay in
// bijection (Fsck invariant 3 checks both directions).
func (fs *FS) RegisterMem(id BlockID, node cluster.NodeID) {
	prev := fs.table.memNode[int(id)]
	if prev == int32(node) {
		return
	}
	if prev >= 0 {
		fs.DropMem(id, cluster.NodeID(prev))
	}
	dn := fs.dns[int(node)]
	fs.table.memNode[int(id)] = int32(node)
	fs.table.memPos[int(id)] = int32(len(dn.resident))
	dn.resident = append(dn.resident, id)
	dn.memUsed += fs.table.blockSize(id)
	fs.memCount++
}

// DropMem removes the in-memory replica of a block from a node.
func (fs *FS) DropMem(id BlockID, node cluster.NodeID) {
	if fs.table.memNode[int(id)] != int32(node) {
		return
	}
	dn := fs.dns[int(node)]
	size := fs.table.blockSize(id)
	fs.detachResident(dn, id)
	dn.memUsed -= size
	fs.memCount--
	if fs.tr.Enabled() {
		fs.tr.Inc("evictions")
		fs.tr.Instant("migration", "evict", int(node),
			trace.Int("block", int64(id)), trace.Int("size", int64(size)))
	}
}

// detachResident unlinks the block from the node's resident list with a
// swap-remove and clears its registry columns.
func (fs *FS) detachResident(dn *DataNode, id BlockID) {
	pos := fs.table.memPos[int(id)]
	last := len(dn.resident) - 1
	moved := dn.resident[last]
	dn.resident[pos] = moved
	fs.table.memPos[int(moved)] = pos
	dn.resident = dn.resident[:last]
	fs.table.memNode[int(id)] = -1
	fs.table.memPos[int(id)] = -1
}

// DropAllMem clears every buffered block on a node — what happens when a
// DYRS slave process dies and the OS reclaims its locked memory.
func (fs *FS) DropAllMem(node cluster.NodeID) {
	dn := fs.dns[int(node)]
	n := len(dn.resident)
	if fs.tr.Enabled() && n > 0 {
		fs.tr.Add("evictions", int64(n))
		fs.tr.Instant("migration", "evict-all", int(node),
			trace.Int("blocks", int64(n)),
			trace.Int("bytes", int64(dn.memUsed)))
	}
	for _, id := range dn.resident {
		fs.table.memNode[int(id)] = -1
		fs.table.memPos[int(id)] = -1
	}
	fs.memCount -= n
	dn.resident = dn.resident[:0]
	if !canaryLeakBufferAccounting {
		dn.memUsed = 0
	}
}

// MemBlockIDs returns the blocks resident in this node's buffer, sorted
// by block ID. The migration slave's scavenger walks this list; sorting
// keeps reclamation order (and any trace it emits) deterministic.
func (dn *DataNode) MemBlockIDs() []BlockID {
	ids := make([]BlockID, len(dn.resident))
	copy(ids, dn.resident)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// MemReplicaCount reports the number of blocks with an in-memory replica.
func (fs *FS) MemReplicaCount() int { return fs.memCount }

// TotalMemUsed reports buffered bytes across all nodes. It sums the
// per-node accounting (rather than a derived counter) so accounting
// bugs in the per-node books remain observable (the dyrs_canary build
// relies on this).
func (fs *FS) TotalMemUsed() sim.Bytes {
	var total sim.Bytes
	for _, dn := range fs.dns {
		total += dn.memUsed
	}
	return total
}

// ReadBlock reads a block on behalf of a task running at node `at`.
// The read is redirected to an in-memory replica when one exists (local or
// remote, per §III: "reads will be directed to the in-memory replica
// whether it is local or remote"); otherwise it is served from a disk
// replica, preferring a local one. done receives the result.
//
// Hooks registered with OnRead run synchronously, before the transfer
// begins; the cache layer uses one to count hits and misses.
func (fs *FS) ReadBlock(at cluster.NodeID, id BlockID, done func(ReadResult)) error {
	var sp trace.SpanRef
	if fs.tr.Enabled() {
		sp = fs.tr.Begin("read", "read", int(at),
			trace.Int("block", int64(id)),
			trace.Int("size", int64(fs.table.blockSize(id))))
	}
	return fs.readAttempt(at, id, fs.eng.Now(), nil, done, true, sp)
}

// readAttempt is one try at serving the read; on hitting a node that is
// actually down (but still offered by the stale NameNode view), it pays
// the connect timeout and retries with that node excluded — the client
// fail-over of §III-C2. sp is the read's trace span, threaded through
// the fail-over retries so the whole read (timeouts included) is one
// span.
func (fs *FS) readAttempt(at cluster.NodeID, id BlockID, start sim.Time,
	exclude map[cluster.NodeID]bool, done func(ReadResult), first bool, sp trace.SpanRef) error {
	failover := func(server cluster.NodeID) {
		fs.eng.Schedule(connectTimeout, func() {
			fs.failedOvers++
			if fs.tr.Enabled() {
				fs.tr.Inc("read.failover")
				fs.tr.Instant("read", "failover", int(at),
					trace.Int("block", int64(id)), trace.Int("dead-server", int64(server)))
			}
			ex := exclude
			if ex == nil {
				ex = make(map[cluster.NodeID]bool)
			}
			ex[server] = true
			fs.readAttempt(at, id, start, ex, done, false, sp)
		})
	}

	if memNode, ok := fs.MemReplica(id); ok && !exclude[memNode] {
		if first {
			fs.notifyRead(id, at)
		}
		if !fs.cl.Node(memNode).Alive() {
			failover(memNode)
			return nil
		}
		dn := fs.dns[int(memNode)]
		dn.MemReads++
		op := fs.newReadOp(at, id, start, fs.table.blockSize(id), done, sp)
		op.server = memNode
		if memNode == at {
			op.src = SourceMemLocal
			op.legs[0] = dn.node.Mem
		} else {
			dn.RemoteServes++
			op.src = SourceMemRemote
			op.setTransferLegs(dn.node.NIC)
		}
		fs.eng.Schedule(fs.cfg.ReadLatency, op.launch)
		return nil
	}

	replicas := fs.LiveReplicas(id, fs.repBuf[:0])
	fs.repBuf = replicas[:0]
	if exclude != nil {
		kept := replicas[:0]
		for _, r := range replicas {
			if !exclude[r] {
				kept = append(kept, r)
			}
		}
		replicas = kept
	}
	if len(replicas) == 0 {
		sp.End(trace.Str("outcome", "failed"))
		if first {
			return ErrNoReplica
		}
		if done != nil {
			done(ReadResult{Block: id, Failed: true, Started: start, Finished: fs.eng.Now()})
		}
		return ErrNoReplica
	}
	server := replicas[0]
	local := false
	for _, r := range replicas {
		if r == at {
			server = r
			local = true
			break
		}
	}
	if !local {
		server = fs.pickRemoteReplica(at, replicas)
	}
	if first {
		fs.notifyRead(id, at)
	}
	if !fs.cl.Node(server).Alive() {
		failover(server)
		return nil
	}
	dn := fs.dns[int(server)]
	dn.DiskReads++
	op := fs.newReadOp(at, id, start, fs.table.blockSize(id), done, sp)
	op.server = server
	if local {
		op.src = SourceDiskLocal
		op.legs[0] = dn.node.Disk
	} else {
		dn.RemoteServes++
		op.src = SourceDiskRemote
		op.setTransferLegs(dn.node.Disk)
	}
	fs.eng.Schedule(fs.cfg.ReadLatency, op.launch)
	return nil
}

// pickRemoteReplica chooses the replica to read from when none is local:
// a random same-rack replica when one exists (HDFS sorts replicas by
// network distance), otherwise a random replica.
func (fs *FS) pickRemoteReplica(at cluster.NodeID, replicas []cluster.NodeID) cluster.NodeID {
	if fs.cl.Racks() > 1 {
		sameRack := 0
		for _, r := range replicas {
			if fs.cl.SameRack(at, r) {
				sameRack++
			}
		}
		if sameRack > 0 {
			k := fs.rng.Intn(sameRack)
			for _, r := range replicas {
				if fs.cl.SameRack(at, r) {
					if k == 0 {
						return r
					}
					k--
				}
			}
		}
	}
	return replicas[fs.rng.Intn(len(replicas))]
}

// readHook is invoked on every block read; the cache layer registers one
// to track its LRU order.
type readHook func(id BlockID, at cluster.NodeID)

var errNilHook = errors.New("dfs: nil read hook")

// notifyRead runs the hooks registered with OnRead.
func (fs *FS) notifyRead(id BlockID, at cluster.NodeID) {
	for _, h := range fs.readHooks {
		h(id, at)
	}
}

// OnRead registers fn to be called at the start of every block read.
func (fs *FS) OnRead(fn func(id BlockID, at cluster.NodeID)) error {
	if fn == nil {
		return errNilHook
	}
	fs.readHooks = append(fs.readHooks, fn)
	return nil
}

// MigrateToMemory performs the slave-side migration mechanics: read the
// block from this node's disk (the mmap+mlock path in the paper) and, on
// completion, register the in-memory replica. The returned flow lets the
// caller observe progress or cancel. The DataNode must hold a disk
// replica of the block.
//
// weight is the migration stream's IO fair-share weight relative to
// foreground reads (weight 1). Migration runs at background priority so
// it consumes residual bandwidth: the full disk when idle, next to
// nothing when foreground reads saturate it.
//
// The transfer runs on a pooled op (ops.go), recycled before done runs,
// so a done that starts the next migration allocates nothing.
func (dn *DataNode) MigrateToMemory(id BlockID, weight float64, done func(sim.Duration)) (*sim.Flow, error) {
	fs := dn.fs
	if !fs.table.holdsReplica(id, dn.node.ID) {
		return nil, fmt.Errorf("dfs: node %v holds no replica of block %d", dn.node.ID, id)
	}
	if weight <= 0 {
		weight = 1
	}
	dn.DiskReads++
	op := fs.newMigrateOp(dn.node.ID, id, done)
	return dn.node.Disk.StartWeighted(fs.table.blockSize(id), weight, op.legDone), nil
}

// WriteBlocks writes `size` bytes of job output originating at node `at`,
// split into blocks, with replication 1, as every job writes its output
// (sort benchmarks commonly do). Each block streams onto the writer's own
// disk, all of them in parallel; done runs when the last block lands.
func (fs *FS) WriteBlocks(at cluster.NodeID, size sim.Bytes, done func()) {
	if size <= 0 {
		if done != nil {
			fs.eng.Schedule(0, done)
		}
		return
	}
	dn := fs.dns[int(at)]
	op := fs.newWriteOp(done)
	for remaining := size; remaining > 0; {
		bs := min(fs.cfg.BlockSize, remaining)
		remaining -= bs
		op.startBlock(dn.node.Disk, bs)
		dn.BlocksWritten++
	}
}

// ReadCounts returns per-node counts of disk reads served, in node order —
// the data behind Fig. 8.
func (fs *FS) ReadCounts() []int {
	out := make([]int, len(fs.dns))
	for i, dn := range fs.dns {
		out[i] = dn.DiskReads
	}
	return out
}

// SortedBlockIDs returns all block ids of the named files sorted by file
// order; convenience for tests.
func (fs *FS) SortedBlockIDs(names []string) []BlockID {
	ids, err := fs.FileBlockIDs(names)
	if err != nil {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
