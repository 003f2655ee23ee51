package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"notebookos/internal/resources"
)

func rowOf(c *Cluster, h *Host) *Row {
	slot := h.Slot()
	return &c.Table().Rows(slot / TableChunk)[slot%TableChunk]
}

// checkTable compares the dense table with the cluster it belongs to, at a
// point between two writes: every member sits in exactly one live slot of a
// chunk of its shape, its row equals a recount from the host's replica list
// and pool, its replica count is its replicas by ID plus those byCount (the
// caller's model of what it subscribed by count; nil: none), every leaf of
// a chunk's tournaments holds what its occupant shows (the worst values
// when the slot is free) and every node the better of its children, and
// the ordinals sort the members exactly as their ID strings do.
func checkTable(t *testing.T, c *Cluster, byCount map[*Host][]int) {
	t.Helper()
	tab := c.Table()
	members := c.Hosts()
	live := 0
	for j := 0; j < tab.Chunks(); j++ {
		live += bits.OnesCount32(tab.Live(j))
		keys, subs := tab.Tournaments(j)
		for i := 0; i < TableChunk; i++ {
			h := tab.Host(j*TableChunk + i)
			key, sub := worstKey, int32(math.MaxInt32)
			if h != nil {
				key = LoadKey(int32(h.Committed().GPUs), int32(h.subscribed), int32(tab.Rows(j)[i].Ord()))
				sub = int32(h.subscribed)
			}
			if n := TableChunk + i; keys[n] != key || subs[n] != sub {
				t.Errorf("slot %d: leaf holds key %#x, %d subscribed; its occupant's are %#x, %d", j*TableChunk+i, keys[n], subs[n], key, sub)
			}
			if occupied := tab.Live(j)>>i&1 == 1; occupied != (h != nil) {
				t.Errorf("slot %d: live bit %v, host %v", j*TableChunk+i, occupied, h)
			}
			if h != nil && (h.Slot() != j*TableChunk+i || tab.Shapes()[tab.Shape(j)] != h.Capacity) {
				t.Errorf("slot %d holds %s, whose Slot() is %d and capacity %v (chunk shape %v)",
					j*TableChunk+i, h.ID, h.Slot(), h.Capacity, tab.Shapes()[tab.Shape(j)])
			}
		}
		for n := TableChunk - 1; n >= 1; n-- {
			if keys[n] != min(keys[2*n], keys[2*n+1]) || subs[n] != min(subs[2*n], subs[2*n+1]) {
				t.Errorf("chunk %d node %d: key %#x, %d subscribed; its children's best are %#x, %d",
					j, n, keys[n], subs[n], min(keys[2*n], keys[2*n+1]), min(subs[2*n], subs[2*n+1]))
			}
		}
	}
	if live != len(members) {
		t.Errorf("%d live slots, %d members", live, len(members))
	}
	for _, h := range members {
		if tab.Host(h.Slot()) != h {
			t.Errorf("%s: slot %d holds another host", h.ID, h.Slot())
			continue
		}
		row := rowOf(c, h)
		if got, want := row.SubscribedGPUs(), h.subscribed; got != want {
			t.Errorf("%s: row subscribed %d, recount %d", h.ID, got, want)
		}
		if got, want := row.CommittedGPUs(), h.Committed().GPUs; got != want {
			t.Errorf("%s: row committed %d, recount %d", h.ID, got, want)
		}
		if got, want := h.NumReplicas(), len(h.replicas)+len(byCount[h]); got != want {
			t.Errorf("%s: NumReplicas %d, recount %d", h.ID, got, want)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	for i := 1; i < len(members); i++ {
		if a, b := members[i-1], members[i]; rowOf(c, a).Ord() >= rowOf(c, b).Ord() {
			t.Errorf("%s has ordinal %d, %s has %d: ordinals must sort as the IDs do",
				a.ID, rowOf(c, a).Ord(), b.ID, rowOf(c, b).Ord())
		}
	}
}

// TestOrdinalsSortAsHostIDs pins that a row's ordinal reproduces the
// string order of host IDs, not the order hosts joined in. The simulator's
// "%s-h%04d" IDs join in string order only up to a member's 9,999th host.
func TestOrdinalsSortAsHostIDs(t *testing.T) {
	seq := func(from, to int) []string {
		var ids []string
		for i := from; i <= to; i++ {
			ids = append(ids, fmt.Sprintf("sim-h%04d", i))
		}
		return ids
	}
	shuffled := seq(1, 70)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, tc := range []struct {
		name   string
		add    []string
		remove []string // removed once everything in add has joined
		readd  []string // joined after the removals
	}{
		{name: "in string order", add: seq(1, 40)},
		{name: "past the 10,000th host", add: seq(9990, 10010)},
		{name: "random order", add: shuffled},
		{name: "into the gaps removals left", add: seq(1, 40), remove: seq(10, 20), readd: []string{"sim-h0015", "sim-h0010", "sim-h0020", "sim-h0000", "sim-h9999"}},
		{name: "a crowded gap", add: []string{"a", "c"}, readd: []string{"b5", "b3", "b4", "b1", "b2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(3)
			join := func(ids []string) {
				for _, id := range ids {
					if err := c.AddHost(NewHost(id, resources.P316xlarge())); err != nil {
						t.Fatal(err)
					}
					checkTable(t, c, nil)
				}
			}
			join(tc.add)
			for i, id := range tc.remove {
				leave := c.RemoveHost
				if i%2 == 1 {
					leave = c.CrashHost
				}
				if err := leave(id); err != nil {
					t.Fatal(err)
				}
				checkTable(t, c, nil)
			}
			join(tc.readd)
		})
	}
}

// TestTableFollowsMembership pins what the table shows of a host across
// its membership: a host populated before AddHost (as the benchmark's
// cluster builder does) publishes what it carries when it joins; a host
// that left by RemoveHost or CrashHost keeps taking writes without
// touching the slot it vacated, even once another host sits there; and
// rejoining publishes whatever it carries by then.
func TestTableFollowsMembership(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave func(c *Cluster, id string) error
	}{
		{"RemoveHost", (*Cluster).RemoveHost},
		{"CrashHost", (*Cluster).CrashHost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(3)
			h := NewHost("early", resources.P316xlarge())
			for i := 0; i < 3; i++ {
				if err := h.PlaceReplica(fmt.Sprintf("k%d", i), req(2)); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Commit("t", req(3)); err != nil {
				t.Fatal(err)
			}
			if err := c.AddHost(h); err != nil {
				t.Fatal(err)
			}
			checkTable(t, c, nil)
			if row := rowOf(c, h); row.SubscribedGPUs() != 6 || row.CommittedGPUs() != 3 || h.NumReplicas() != 3 {
				t.Fatalf("joined with 6 subscribed, 3 committed GPUs and 3 replicas; row shows %d, %d, NumReplicas %d",
					row.SubscribedGPUs(), row.CommittedGPUs(), h.NumReplicas())
			}

			slot := h.Slot()
			for i := 0; i < 3; i++ { // RemoveHost wants the replicas gone; CrashHost takes them along
				if tc.name == "RemoveHost" {
					if err := h.RemoveReplica(fmt.Sprintf("k%d", i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tc.leave(c, h.ID); err != nil {
				t.Fatal(err)
			}
			if h.Slot() != -1 || c.Table().Host(slot) != nil || c.Table().Live(0) != 0 {
				t.Fatalf("after leaving: Slot() = %d, slot %d holds %v, live mask %b", h.Slot(), slot, c.Table().Host(slot), c.Table().Live(0))
			}
			next := NewHost("next", resources.P316xlarge())
			if err := c.AddHost(next); err != nil {
				t.Fatal(err)
			}
			if next.Slot() != slot {
				t.Fatalf("the freed slot %d was not reused (got %d)", slot, next.Slot())
			}
			if err := next.PlaceReplica("n", req(1)); err != nil {
				t.Fatal(err)
			}
			// The departed host lives on: its writes land in its own counters.
			if err := h.PlaceReplica("late", req(4)); err != nil {
				t.Fatal(err)
			}
			if err := h.Release("t"); err != nil {
				t.Fatal(err)
			}
			if err := h.Commit("t2", req(5)); err != nil {
				t.Fatal(err)
			}
			checkTable(t, c, nil)
			if row := rowOf(c, next); row.SubscribedGPUs() != 1 || row.CommittedGPUs() != 0 {
				t.Errorf("slot %d shows %d subscribed, %d committed GPUs: a departed host wrote into it", slot, row.SubscribedGPUs(), row.CommittedGPUs())
			}
			if got, want := h.SubscribedGPUs(), h.subscribed; got != want {
				t.Errorf("departed host: SubscribedGPUs %d, recount %d", got, want)
			}
			if got, want := h.IdleGPUs(), 8-5; got != want {
				t.Errorf("departed host: IdleGPUs %d, want %d", got, want)
			}
			if err := c.AddHost(h); err != nil {
				t.Fatal(err)
			}
			checkTable(t, c, nil)
			checkAggregates(t, c, "after rejoining")
		})
	}
}
