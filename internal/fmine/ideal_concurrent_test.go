package fmine

import (
	"fmt"
	"sync"
	"testing"

	"ccba/internal/crypto/prf"
	"ccba/internal/types"
)

// entries counts the stored tickets by walking the table, and checks the
// writers' own count against it.
func (f *Ideal) entries() int {
	t := f.tickets.Load()
	n := 0
	for i := range t.slots {
		if t.slots[i].Load() != nil {
			n++
		}
	}
	if n != t.used {
		panic(fmt.Sprintf("fmine: table holds %d entries but counts %d", n, t.used))
	}
	return n
}

// TestIdealConcurrentMatchesFigure1 mines and verifies on one Ideal from W
// goroutines at once and holds every answer to the Figure 1 model. Each
// worker owns a disjoint id range and additionally works a range every
// worker shares, so the same (tag, id) is mined — and its ticket stored —
// from several goroutines concurrently; verifies race those mines
// (verify-before-mine must answer false or, once some worker has mined the
// cell, true — never accept anything but the cell's own coin).
func TestIdealConcurrentMatchesFigure1(t *testing.T) {
	prob := func(tag Tag) float64 {
		if tag.Type == 1 {
			return 0.5
		}
		return 0.05
	}
	seed := [32]byte{11}
	key := hiddenKey(seed)
	var tags []Tag
	for typ := uint8(1); typ <= 2; typ++ {
		for iter := uint32(1); iter <= 3; iter++ {
			tags = append(tags, Tag{Domain: "concurrent-test", Type: typ, Iter: iter, Bit: types.Bit(iter % 2)})
		}
	}
	const shared, own = 24, 24 // ids [0, shared) are everyone's; then one block per worker

	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("W%d", workers), func(t *testing.T) {
			f := NewIdeal(seed, prob)
			v := f.Verifier()
			// coin is Figure 1's Coin[m, i] and whether it clears the
			// difficulty, straight from the definition.
			coin := func(tag Tag, id types.NodeID) (prf.Output, bool) {
				c := hmacSHA256(key, cell(tag, id))
				return c, c.Below(prob(tag))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ids := make([]types.NodeID, 0, shared+own)
					for i := 0; i < shared; i++ {
						// Stagger the shared range so workers collide on
						// different cells at different times.
						ids = append(ids, types.NodeID((i+w*5)%shared))
					}
					for i := 0; i < own; i++ {
						ids = append(ids, types.NodeID(shared+w*own+i))
					}
					for _, id := range ids {
						m := f.Miner(id)
						private := id >= shared
						for _, tag := range tags {
							c, success := coin(tag, id)
							forged := c
							forged[20] ^= 1
							if private && v.Verify(tag, id, c[:]) {
								t.Errorf("W%d: Verify(%v, %d) answered before mine (ticket secrecy)", w, tag, id)
							}
							if v.Verify(tag, id, forged[:]) || v.Verify(tag, id, c[:31]) || v.Verify(tag, id+1, c[:]) {
								t.Errorf("W%d: Verify(%v, %d) accepted a forged, short or wrong-owner proof", w, tag, id)
							}
							for rep := 0; rep < 2; rep++ {
								got, ok := m.Mine(tag)
								if ok != success || (ok && string(got) != string(c[:])) {
									t.Errorf("W%d: Mine(%v, %d) = (%x, %v), Figure 1 says (%x, %v)", w, tag, id, got, ok, c, success)
								}
							}
							if got := v.Verify(tag, id, c[:]); got != success {
								t.Errorf("W%d: Verify(%v, %d) after mine = %v, Figure 1 says %v", w, tag, id, got, success)
							}
							if v.Verify(tag, id, forged[:]) || v.Verify(tag, id, c[:31]) || v.Verify(tag, id+1, c[:]) {
								t.Errorf("W%d: Verify(%v, %d) accepted a forged, short or wrong-owner proof after mine", w, tag, id)
							}
						}
					}
				}(w)
			}
			wg.Wait()

			// Quiescent: the table holds one entry per successful cell —
			// concurrent mines of a shared cell stored it once — and every
			// worker is handed the same stored slice.
			want := 0
			for id := types.NodeID(0); id < types.NodeID(shared+workers*own); id++ {
				for _, tag := range tags {
					c, success := coin(tag, id)
					if !success {
						continue
					}
					want++
					p1, _ := f.Miner(id).Mine(tag)
					p2, _ := f.Miner(id).Mine(tag)
					if string(p1) != string(c[:]) || &p1[0] != &p2[0] {
						t.Fatalf("Mine(%v, %d) does not return the one stored ticket", tag, id)
					}
				}
			}
			if got := f.entries(); got != want {
				t.Errorf("table has %d entries, want one per successful cell (%d)", got, want)
			}
		})
	}
}

// TestIdealIndexCollision crafts tickets that share the table's index
// bytes, so they probe from one slot: both must verify for their own
// (tag, id) only, a splice of one's prefix with the other's tail — same
// index, same probe sequence — must verify for neither, and a genuinely
// mined ticket whose slot is occupied is stored, found again and verified.
func TestIdealIndexCollision(t *testing.T) {
	f := NewIdeal([32]byte{13}, func(Tag) float64 { return 1 })
	v := f.Verifier()
	tagA := Tag{Domain: "collision-test", Type: 1, Iter: 1, Bit: types.Zero}
	tagB := Tag{Domain: "collision-test", Type: 1, Iter: 2, Bit: types.One}

	a := &ticketEntry{tag: tagA, id: 3}
	b := &ticketEntry{tag: tagB, id: 4}
	for i := range a.ticket {
		a.ticket[i], b.ticket[i] = byte(i), byte(0x80+i)
	}
	copy(b.ticket[8:16], a.ticket[8:16])
	if ticketIndex(a.ticket[:]) != ticketIndex(b.ticket[:]) {
		t.Fatal("crafted tickets do not collide")
	}
	if f.store(a) != a || f.store(b) != b {
		t.Fatal("store did not publish a fresh entry")
	}
	if f.store(&ticketEntry{tag: tagA, id: 3, ticket: a.ticket}) != a {
		t.Error("storing an attempt twice did not return the first entry")
	}
	if got := f.entries(); got != 2 {
		t.Errorf("table has %d entries, want 2", got)
	}

	if !v.Verify(tagA, 3, a.ticket[:]) || !v.Verify(tagB, 4, b.ticket[:]) {
		t.Error("a ticket behind an index collision was rejected")
	}
	if v.Verify(tagA, 3, b.ticket[:]) || v.Verify(tagB, 4, a.ticket[:]) ||
		v.Verify(tagB, 3, a.ticket[:]) || v.Verify(tagA, 4, a.ticket[:]) {
		t.Error("a colliding ticket verified for another entry's tag or owner")
	}
	splice := append(append([]byte(nil), a.ticket[:16]...), b.ticket[16:]...)
	if ticketIndex(splice) != ticketIndex(a.ticket[:]) {
		t.Fatal("splice does not share the index")
	}
	if v.Verify(tagA, 3, splice) || v.Verify(tagB, 4, splice) {
		t.Error("a splice of two colliding tickets verified: fewer than all 32 bytes were compared")
	}

	// A real mining success whose index is already occupied.
	c := hmacSHA256(hiddenKey([32]byte{13}), cell(tagA, 9))
	squatter := &ticketEntry{tag: tagB, id: 10, ticket: c}
	squatter.ticket[0] ^= 1
	f.store(squatter)
	if v.Verify(tagA, 9, c[:]) {
		t.Fatal("Verify answered before mine on an occupied slot")
	}
	p1, ok1 := f.Miner(9).Mine(tagA)
	p2, ok2 := f.Miner(9).Mine(tagA)
	if !ok1 || !ok2 || string(p1) != string(c[:]) || &p1[0] != &p2[0] {
		t.Fatal("Mine on an occupied slot did not store and return one ticket")
	}
	if !v.Verify(tagA, 9, p1) || !v.Verify(tagB, 10, squatter.ticket[:]) || v.Verify(tagB, 10, p1) {
		t.Error("verify confused the mined ticket with the entry it probes past")
	}
	if got := f.entries(); got != 4 {
		t.Errorf("table has %d entries, want 4", got)
	}
}

// TestIdealTableGrowthKeepsEveryTicket stores several tables' worth of
// tickets that all index the last slot of any power-of-two table, so every
// probe wraps around and every growth rehashes one long run: each ticket
// must verify after each growth, and none for its neighbour's owner.
func TestIdealTableGrowthKeepsEveryTicket(t *testing.T) {
	f := NewIdeal([32]byte{17}, func(Tag) float64 { return 1 })
	v := f.Verifier()
	tag := Tag{Domain: "growth-test", Type: 1, Iter: 1, Bit: types.One}
	const tickets = 5 * minTicketSlots
	entries := make([]*ticketEntry, tickets)
	for i := range entries {
		e := &ticketEntry{tag: tag, id: types.NodeID(i)}
		e.ticket[0], e.ticket[1] = byte(i), byte(i>>8)
		for j := 8; j < 16; j++ {
			e.ticket[j] = 0xff
		}
		entries[i] = f.store(e)
		for _, prior := range entries[:i+1] {
			if !v.Verify(tag, prior.id, prior.ticket[:]) {
				t.Fatalf("ticket %d lost after storing %d", prior.id, i+1)
			}
		}
		if v.Verify(tag, e.id+1, e.ticket[:]) {
			t.Fatalf("ticket %d verified for the next owner", i)
		}
	}
	if got := f.entries(); got != tickets {
		t.Errorf("table has %d entries, want %d", got, tickets)
	}
	if got := len(f.tickets.Load().slots); got < 2*tickets || got&(got-1) != 0 {
		t.Errorf("table has %d slots for %d tickets, want a power of two at least twice that", got, tickets)
	}
}
