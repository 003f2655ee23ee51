package cluster

import (
	"cmp"
	"math"
	"slices"

	"notebookos/internal/resources"
)

// TableChunk is the number of slots in one chunk of the dense host table.
// The table grows a chunk at a time, so a 30-host cluster owns one chunk
// and rows never move once a host has been given one.
const TableChunk = 32

// Row is one slot of a cluster's dense host table: the per-host numbers a
// placement ranks on, side by side with every other member's instead
// of one pointer chase away inside each Host. The occupying host stores its
// counters into its row on every write (Host.publish); the cluster sets the
// ordinal (Cluster.rank). Both bring the row's chunk tournaments along
// (chunk).
type Row struct {
	subscribed, committed, ord int32
}

// SubscribedGPUs returns the host's subscribed GPU count.
func (r *Row) SubscribedGPUs() int { return int(r.subscribed) }

// CommittedGPUs returns the host's exclusively committed GPU count.
func (r *Row) CommittedGPUs() int { return int(r.committed) }

// Ord returns the host's ordinal: among the members of one cluster,
// ordinals compare exactly as the host-ID strings do, so a ranking that
// ends in "then by host ID" can end in an integer compare.
func (r *Row) Ord() int { return int(r.ord) }

// KeyMax is the largest GPU count a packed key holds; larger ones read as
// KeyMax, which can make a tournament node flatter a row but never hide it.
const KeyMax = 1<<16 - 1

// LoadKey packs a least-loaded key — fewest committed GPUs, then fewest
// subscribed GPUs, then lowest ordinal — into one word that compares as the
// key does while both counts are at most KeyMax and the ordinal is not
// negative.
func LoadKey(committed, subscribed, ord int32) uint64 {
	return uint64(min(committed, KeyMax))<<48 | uint64(min(subscribed, KeyMax))<<32 | uint64(uint32(ord))
}

// worstKey is the key no row has: a free slot's leaf, and the root of a
// chunk without live rows.
var worstKey = LoadKey(math.MaxInt32, math.MaxInt32, math.MaxInt32)

// chunk is TableChunk slots for hosts of one shape: their rows, which of
// them are occupied (live), two tournaments over the occupied rows, and —
// apart from the rows, so a placement's working set stays the rows — the
// hosts occupying them.
//
// The tournaments (keys, subs; Table.Tournaments) rank the live rows by key
// (LoadKey) and by subscribed GPUs: node n holds the smaller of nodes 2n
// and 2n+1, leaf TableChunk+i what slot i's row shows while the slot is
// live. Within one chunk — one host shape — the key order is the order
// every request ranks the rows in, so a placement that finds a node's key
// beaten, or its fewest subscribed GPUs too many, knows the same of every
// row below it. A write costs the few levels its row's change carries
// through, never a pass over the chunk.
type chunk struct {
	shape int
	live  uint32
	keys  [2 * TableChunk]uint64
	subs  [2 * TableChunk]int32
	rows  [TableChunk]Row
	hosts [TableChunk]*Host
}

func newChunk(shape int) *chunk {
	ch := &chunk{shape: shape}
	for n := range ch.keys {
		ch.keys[n], ch.subs[n] = worstKey, math.MaxInt32
	}
	return ch
}

// enter replays slot i's matches in both tournaments with these values.
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

// update replays slot i's matches with what its row shows, while the slot
// is live.
func (ch *chunk) update(i int) {
	if ch.live>>i&1 != 0 {
		row := &ch.rows[i]
		ch.enter(i, LoadKey(row.committed, row.subscribed, row.ord), row.subscribed)
	}
}

// Table is a cluster's dense host table. Every chunk holds hosts of one
// shape (capacity), so whatever a placement derives from a request and a
// shape it derives once per chunk. Slots are numbered chunk by chunk: slot
// s is Rows(s / TableChunk)[s % TableChunk]. A host keeps its slot for as
// long as it is a member; a freed slot is reused by a later AddHost of the
// same shape, which is why slot order is not insertion order.
type Table struct {
	chunks []*chunk
	shapes []resources.Spec
}

// Chunks returns the number of chunks in the table.
func (t *Table) Chunks() int { return len(t.chunks) }

// Shape returns the index into Shapes of the capacity every host of a chunk
// has.
func (t *Table) Shape(chunk int) int { return t.chunks[chunk].shape }

// Live returns the occupied slots of a chunk: bit i is set while
// Rows(chunk)[i] belongs to a member host.
func (t *Table) Live(chunk int) uint32 { return t.chunks[chunk].live }

// Rows returns the rows of one chunk, free slots included.
func (t *Table) Rows(chunk int) *[TableChunk]Row { return &t.chunks[chunk].rows }

// Tournaments returns a chunk's two tournaments over its slots, which
// every row write keeps exact: node n (1 <= n < TableChunk) holds the
// smaller of nodes 2n and 2n+1, and leaf TableChunk+i holds slot i's key
// (LoadKey) and subscribed GPUs while the slot is live, the worst key and
// math.MaxInt32 while it is free. Node 1 is the best key and the fewest
// subscribed GPUs among the chunk's live rows; within one chunk, i.e. one
// host shape, key order is the order any request ranks the rows in as long
// as the shape has GPUs. The arrays are shared; do not modify them.
func (t *Table) Tournaments(chunk int) (keys *[2 * TableChunk]uint64, minSubscribed *[2 * TableChunk]int32) {
	ch := t.chunks[chunk]
	return &ch.keys, &ch.subs
}

// Shapes returns the distinct host capacities the cluster has seen. The
// slice is shared; do not modify it.
func (t *Table) Shapes() []resources.Spec { return t.shapes }

// Host returns the host occupying a slot, or nil when the slot is free.
func (t *Table) Host(slot int) *Host { return t.chunks[slot/TableChunk].hosts[slot%TableChunk] }

// Table returns the cluster's dense host table.
func (c *Cluster) Table() *Table { return &c.table }

// seat gives h a slot among those of its shape — a freed one, or the first
// of a new chunk when none is free — ranks it at position p of byID, adds
// its counters to the aggregates and stores them into the slot's row, which
// enters the chunk's tournaments.
func (c *Cluster) seat(h *Host, p int) {
	t := &c.table
	shape := slices.Index(t.shapes, h.Capacity)
	if shape < 0 {
		shape = len(t.shapes)
		t.shapes = append(t.shapes, h.Capacity)
		c.free = append(c.free, nil)
	}
	if len(c.free[shape]) == 0 {
		for i := TableChunk - 1; i >= 0; i-- { // so that slots are taken in order
			c.free[shape] = append(c.free[shape], len(t.chunks)*TableChunk+i)
		}
		t.chunks = append(t.chunks, newChunk(shape))
	}
	free := c.free[shape]
	slot := free[len(free)-1]
	c.free[shape] = free[:len(free)-1]

	ch, i := t.chunks[slot/TableChunk], slot%TableChunk
	ch.rows[i].ord = c.rank(h, p)
	ch.live |= 1 << i
	ch.hosts[i] = h
	h.c, h.ch, h.row, h.slot = c, ch, &ch.rows[i], slot
	h.count(1)
	h.publish()
}

// unseat frees h's slot: the slot goes dead and leaves the tournaments, the
// host's counters leave the aggregates, and h leaves position p of byID.
func (c *Cluster) unseat(h *Host, p int) {
	ch, i := h.ch, h.slot%TableChunk
	ch.live &^= 1 << i
	ch.enter(i, worstKey, math.MaxInt32)
	ch.hosts[i] = nil
	c.free[ch.shape] = append(c.free[ch.shape], h.slot)
	h.count(-1)
	h.c, h.ch, h.row, h.slot = nil, nil, nil, -1
	c.byID = slices.Delete(c.byID, p, p+1)
}

// idPosition returns where a host with this ID is, or would go, in byID,
// and whether a member has it.
func (c *Cluster) idPosition(id string) (int, bool) {
	return slices.BinarySearchFunc(c.byID, id, func(m *Host, id string) int { return cmp.Compare(m.ID, id) })
}

// rank files h at position p of byID, among the members in host-ID order,
// and returns an ordinal that sorts the same way. Ordinals need only
// increase along byID, not be consecutive: a host that sorts last — every
// host the simulator adds until a member's 10,000th, see doc.go — takes the
// last ordinal plus one, and one that sorts into the middle pushes its
// successors up only until the order holds again (removals leave gaps).
func (c *Cluster) rank(h *Host, p int) int32 {
	c.byID = slices.Insert(c.byID, p, h)
	ord := int32(0)
	if p > 0 {
		ord = c.byID[p-1].row.ord + 1
	}
	next := ord
	for _, m := range c.byID[p+1:] {
		if m.row.ord > next {
			break
		}
		next++
		m.row.ord = next
		m.publish()
	}
	return ord
}
