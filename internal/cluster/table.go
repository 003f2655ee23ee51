package cluster

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"notebookos/internal/resources"
)

// TableChunk is the number of slots in one chunk of the dense host table.
// The table grows a chunk at a time, so a 30-host cluster owns one chunk
// and rows never move once a host has been given one.
const TableChunk = 32

// Row is one slot of a cluster's dense host table: the per-host numbers a
// placement scan ranks on, side by side with every other member's instead
// of one pointer chase away inside each Host. The occupying host publishes
// its counters into its row under its own lock, from the guarded state
// (PlaceReplica, RemoveReplica, Commit, Release, attach); the
// cluster sets the ordinal under the cluster lock; both go through the
// row's chunk, which keeps a summary of its rows (chunk). Every field is a
// single word, read without a lock.
type Row struct {
	// subscription is the replica count above the subscribed GPU count, 32
	// bits each: the two change together, and one word is one store.
	subscription atomic.Uint64
	committed    atomic.Int32
	ord          atomic.Int32
}

func (r *Row) subscribed() int32 { return int32(r.subscription.Load()) }
func (r *Row) replicas() int32   { return int32(r.subscription.Load() >> 32) }

// SubscribedGPUs returns the host's subscribed GPU count.
func (r *Row) SubscribedGPUs() int { return int(r.subscribed()) }

// CommittedGPUs returns the host's exclusively committed GPU count.
func (r *Row) CommittedGPUs() int { return int(r.committed.Load()) }

// Ord returns the host's ordinal: among the members of one cluster,
// ordinals compare exactly as the host-ID strings do, so a ranking that
// ends in "then by host ID" can end in an integer compare.
func (r *Row) Ord() int { return int(r.ord.Load()) }

// keyMax is the largest GPU count a packed key holds; larger ones read as
// keyMax, which can make a summary flatter a row but never hide it.
const keyMax = 1<<16 - 1

// loadKey packs a least-loaded key — fewest committed GPUs, then fewest
// subscribed GPUs, then lowest ordinal — into one word that compares as the
// key does.
func loadKey(committed, subscribed, ord int32) uint64 {
	return uint64(min(committed, keyMax))<<48 | uint64(min(subscribed, keyMax))<<32 | uint64(uint32(ord))
}

func (r *Row) key() uint64 { return loadKey(r.committed.Load(), r.subscribed(), r.ord.Load()) }

// set stores the counters that differ from what the row shows.
func (r *Row) set(committed, subscribed, replicas int32) {
	if r.committed.Load() != committed {
		r.committed.Store(committed)
	}
	if s := uint64(uint32(replicas))<<32 | uint64(uint32(subscribed)); r.subscription.Load() != s {
		r.subscription.Store(s)
	}
}

// worstKey is the key no row has: the summary of a chunk without live rows.
var worstKey = loadKey(math.MaxInt32, math.MaxInt32, math.MaxInt32)

// chunk is TableChunk slots for hosts of one shape: their rows, which of
// them are occupied, a summary of the occupied rows, and — apart from the
// rows, so a scan's working set stays the rows — the hosts occupying them.
//
// The summary is the smallest key (loadKey) and the fewest subscribed GPUs
// among the live rows, worstKey and math.MaxInt32 when there are none.
// Within one chunk — one host shape — the key order is the order every
// request ranks the rows in, so a placement scan that finds the best key
// beaten, or the fewest subscribed GPUs too many, knows the same of every
// row. Writers keep both as the roots of two tournaments over the slots
// (keys, subs: node n holds the smaller of nodes 2n and 2n+1, leaf
// TableChunk+i what slot i's row shows while the slot is live), so a write
// costs the few levels its row's change carries through, never a pass over
// the chunk. mu guards the tournaments and serializes everything that moves
// them: every store into a row of the chunk (write, setOrd) and every
// change of the occupancy mask (seat, unseat). It is also the lock of every
// host seated in the chunk (Host.lock), so an occupant's write already
// holds it. best and minSub are the roots
// as lock-free readers see them: exact at quiescent points and, at every
// instant in between, no worse than any live row — lowered before a row
// improves or goes live, raised only after a row got worse or left. A
// reader may therefore scan a chunk for nothing, but never skips one that
// holds a host it would have kept.
type chunk struct {
	shape  int
	live   atomic.Uint32
	mu     sync.Mutex
	keys   [2 * TableChunk]uint64
	subs   [2 * TableChunk]int32
	best   atomic.Uint64
	minSub atomic.Int32
	rows   [TableChunk]Row
	hosts  [TableChunk]atomic.Pointer[Host]
}

func newChunk(shape int) *chunk {
	ch := &chunk{shape: shape}
	for n := range ch.keys {
		ch.keys[n], ch.subs[n] = worstKey, math.MaxInt32
	}
	ch.post()
	return ch
}

// enter replays slot i's matches in both tournaments with what its row
// shows now, or is about to. Caller holds ch.mu.
func (ch *chunk) enter(i int, key uint64, subscribed int32) {
	n := TableChunk + i
	ch.keys[n], ch.subs[n] = key, subscribed
	for n /= 2; n > 0; n /= 2 {
		k, s := min(ch.keys[2*n], ch.keys[2*n+1]), min(ch.subs[2*n], ch.subs[2*n+1])
		if k == ch.keys[n] && s == ch.subs[n] {
			break
		}
		ch.keys[n], ch.subs[n] = k, s
	}
}

// post publishes the tournaments' roots, if they moved. Caller holds ch.mu.
func (ch *chunk) post() {
	if ch.keys[1] != ch.best.Load() {
		ch.best.Store(ch.keys[1])
	}
	if ch.subs[1] != ch.minSub.Load() {
		ch.minSub.Store(ch.subs[1])
	}
}

// write publishes the counters of slot i's occupant into its row and, while
// the slot is live, the summary with it: what of it falls before the row
// changes, what rises after. Caller holds ch.mu.
func (ch *chunk) write(i int, committed, subscribed, replicas int32) {
	row := &ch.rows[i]
	if ch.live.Load()>>i&1 != 0 {
		ch.enter(i, loadKey(committed, subscribed, row.ord.Load()), subscribed)
		if ch.keys[1] < ch.best.Load() {
			ch.best.Store(ch.keys[1])
		}
		if ch.subs[1] < ch.minSub.Load() {
			ch.minSub.Store(ch.subs[1])
		}
	}
	row.set(committed, subscribed, replicas)
	ch.post()
}

// setOrd gives slot i's row a new, larger ordinal (rank). Caller holds c.mu.
func (ch *chunk) setOrd(i int, ord int32) {
	row := &ch.rows[i]
	ch.mu.Lock()
	row.ord.Store(ord)
	if ch.live.Load()>>i&1 != 0 {
		ch.enter(i, row.key(), row.subscribed())
		ch.post()
	}
	ch.mu.Unlock()
}

// Table is a view of a cluster's dense host table: the chunks and host
// shapes that existed when Cluster.Table was called. The view itself is
// immutable; the rows it reaches are live. Every chunk holds hosts of one
// shape (capacity), so whatever a scan derives from a request and a shape
// it derives once per chunk. Slots are numbered chunk by chunk: slot s is
// Rows(s / TableChunk)[s % TableChunk]. A host keeps its slot for as long
// as it is a member; a freed slot is reused by a later AddHost of the same
// shape, which is why slot order is not insertion order.
type Table struct {
	chunks []*chunk
	shapes []resources.Spec
}

// Chunks returns the number of chunks in the view.
func (t *Table) Chunks() int { return len(t.chunks) }

// Shape returns the index into Shapes of the capacity every host of a chunk
// has.
func (t *Table) Shape(chunk int) int { return t.chunks[chunk].shape }

// Live returns the occupied slots of a chunk: bit i is set while
// Rows(chunk)[i] belongs to a member host.
func (t *Table) Live(chunk int) uint32 { return t.chunks[chunk].live.Load() }

// Rows returns the rows of one chunk, free slots included.
func (t *Table) Rows(chunk int) *[TableChunk]Row { return &t.chunks[chunk].rows }

// Summary returns what a chunk's writers keep current about its live rows:
// the key of the least loaded one — fewest committed GPUs, then fewest
// subscribed GPUs, then lowest ordinal: within one chunk, i.e. one host
// shape, the order any request ranks them in as long as the shape has GPUs
// — and the fewest subscribed GPUs any of them has. GPU counts above 65,535
// read as 65,535. An empty chunk reads as the worst of keys and math.MaxInt32.
// Lock-free, and under concurrent writers never worse than a live row (see
// chunk): a reader may skip a chunk whose summary it would turn away.
func (t *Table) Summary(chunk int) (committed, subscribed, ord, minSubscribed int) {
	ch := t.chunks[chunk]
	best := ch.best.Load()
	return int(best >> 48), int(best >> 32 & keyMax), int(uint32(best)), int(ch.minSub.Load())
}

// Shapes returns the distinct host capacities the cluster has seen. The
// slice is shared; do not modify it.
func (t *Table) Shapes() []resources.Spec { return t.shapes }

// Host returns the host occupying a slot, or nil when the slot is free.
func (t *Table) Host(slot int) *Host {
	return t.chunks[slot/TableChunk].hosts[slot%TableChunk].Load()
}

// Table returns the current view of the dense host table. Lock-free.
func (c *Cluster) Table() *Table { return c.table.Load() }

// seat gives h a slot among those of its shape — a freed one, or the first
// of a new chunk when none is free — ranks it among the members, and
// attaches it; the slot goes live last, once everything a scan reads from
// it is in place. Caller holds c.mu.
func (c *Cluster) seat(h *Host) {
	t := c.table.Load()
	shape := slices.Index(t.shapes, h.Capacity)
	if shape < 0 || len(c.free[shape]) == 0 {
		// Views are immutable: publish a new one that shares the chunks.
		nt := &Table{chunks: t.chunks, shapes: t.shapes}
		if shape < 0 {
			shape = len(t.shapes)
			nt.shapes = append(slices.Clip(t.shapes), h.Capacity)
			c.free = append(c.free, nil)
		}
		nt.chunks = append(slices.Clip(t.chunks), newChunk(shape))
		for i := TableChunk - 1; i >= 0; i-- { // so that slots are taken in order
			c.free[shape] = append(c.free[shape], len(t.chunks)*TableChunk+i)
		}
		c.table.Store(nt)
		t = nt
	}
	free := c.free[shape]
	slot := free[len(free)-1]
	c.free[shape] = free[:len(free)-1]

	ch, i := t.chunks[slot/TableChunk], slot%TableChunk
	row := &ch.rows[i]
	c.rank(h, row)
	ch.mu.Lock()
	h.attach(&c.agg, c.freed, ch, slot)
	ch.hosts[i].Store(h)
	ch.enter(i, row.key(), row.subscribed())
	ch.post()
	ch.live.Or(1 << i)
	ch.mu.Unlock()
}

// unseat frees h's slot and detaches it: the slot goes dead and leaves the
// summary first, then the host takes its counters along. Caller holds c.mu.
func (c *Cluster) unseat(h *Host) {
	slot := h.Slot()
	ch, i := c.table.Load().chunks[slot/TableChunk], slot%TableChunk
	ch.mu.Lock()
	ch.live.And(^uint32(1 << i))
	ch.enter(i, worstKey, math.MaxInt32)
	ch.post()
	ch.hosts[i].Store(nil)
	h.detach()
	ch.mu.Unlock()
	c.free[ch.shape] = append(c.free[ch.shape], slot)
	p := c.idPosition(h.ID)
	c.byID = slices.Delete(c.byID, p, p+1)
}

// idPosition returns where a host with this ID is, or would go, in byID.
func (c *Cluster) idPosition(id string) int {
	p, _ := slices.BinarySearchFunc(c.byID, id, func(m *Host, id string) int { return cmp.Compare(m.ID, id) })
	return p
}

// rank files h among the members in host-ID order and gives its row an
// ordinal that sorts the same way. Ordinals need only increase along
// byID, not be consecutive: a host that sorts last — every host the
// simulator adds until a member's 10,000th, see doc.go — takes the last
// ordinal plus one, and one that sorts into the middle pushes its
// successors up only until the order holds again (removals leave gaps).
// Caller holds c.mu.
func (c *Cluster) rank(h *Host, row *Row) {
	p := c.idPosition(h.ID)
	c.byID = slices.Insert(c.byID, p, h)
	ord := int32(0)
	if p > 0 {
		ord = c.byID[p-1].row.Load().ord.Load() + 1
	}
	row.ord.Store(ord) // not live yet: seat summarises it
	t := c.table.Load()
	for _, next := range c.byID[p+1:] {
		if next.row.Load().ord.Load() > ord {
			break
		}
		ord++
		slot := next.Slot()
		t.chunks[slot/TableChunk].setOrd(slot%TableChunk, ord)
	}
}
