package cluster

import (
	"cmp"
	"slices"
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
// the first three into its row under its own lock, from the guarded state
// (PlaceReplica, RemoveReplica, the commit/release observers, attach); the
// cluster sets the ordinal under the cluster lock. Every field is a single
// word, read without a lock.
type Row struct {
	subscribed atomic.Int32
	committed  atomic.Int32
	replicas   atomic.Int32
	ord        atomic.Int32
}

// SubscribedGPUs returns the host's subscribed GPU count.
func (r *Row) SubscribedGPUs() int { return int(r.subscribed.Load()) }

// CommittedGPUs returns the host's exclusively committed GPU count.
func (r *Row) CommittedGPUs() int { return int(r.committed.Load()) }

// Ord returns the host's ordinal: among the members of one cluster,
// ordinals compare exactly as the host-ID strings do, so a ranking that
// ends in "then by host ID" can end in an integer compare.
func (r *Row) Ord() int { return int(r.ord.Load()) }

// chunk is TableChunk slots for hosts of one shape: their rows, which of
// them are occupied, and — apart from the rows, so a scan's working set
// stays the rows — the hosts occupying them.
type chunk struct {
	shape int
	live  atomic.Uint32
	rows  [TableChunk]Row
	hosts [TableChunk]atomic.Pointer[Host]
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
		nt.chunks = append(slices.Clip(t.chunks), &chunk{shape: shape})
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
	c.rank(h, &ch.rows[i])
	h.attach(&c.agg, c.capacityFreed, &ch.rows[i], slot)
	ch.hosts[i].Store(h)
	ch.live.Or(1 << i)
}

// unseat frees h's slot and detaches it. The slot goes dead first; whatever
// h's writers still publish into the row before detach is overwritten when
// the slot's next occupant attaches. Caller holds c.mu.
func (c *Cluster) unseat(h *Host) {
	slot := h.Slot()
	ch, i := c.table.Load().chunks[slot/TableChunk], slot%TableChunk
	ch.live.And(^uint32(1 << i))
	ch.hosts[i].Store(nil)
	h.detach()
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
	row.ord.Store(ord)
	for _, next := range c.byID[p+1:] {
		nr := next.row.Load()
		if nr.ord.Load() > ord {
			break
		}
		ord++
		nr.ord.Store(ord)
	}
}
