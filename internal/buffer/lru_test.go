package buffer

import (
	"slices"
	"testing"

	"specdb/internal/sim"
	"specdb/internal/storage"
)

// lruModel is the reference replacement policy of a one-shard pool: a list
// of resident pages, most recently used first, with each page's pins, sticky
// mark and dirty bit, and the traffic counters every operation moves.
type lruModel struct {
	cap    int
	order  []storage.PageID // front = most recently used
	pins   map[storage.PageID]int
	sticky map[storage.PageID]bool
	dirty  map[storage.PageID]bool

	hits, misses, writes int64
	victims              []storage.PageID
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{
		cap:    capacity,
		pins:   map[storage.PageID]int{},
		sticky: map[storage.PageID]bool{},
		dirty:  map[storage.PageID]bool{},
	}
}

func (m *lruModel) resident(id storage.PageID) bool { return slices.Contains(m.order, id) }

func (m *lruModel) touch(id storage.PageID) {
	m.remove(id)
	m.order = slices.Insert(m.order, 0, id)
}

func (m *lruModel) remove(id storage.PageID) {
	m.order = slices.DeleteFunc(m.order, func(p storage.PageID) bool { return p == id })
}

// drop forgets a page that left the pool, writing it back if dirty.
func (m *lruModel) drop(id storage.PageID) {
	if m.dirty[id] {
		m.writes++
	}
	m.remove(id)
	delete(m.pins, id)
	delete(m.sticky, id)
	delete(m.dirty, id)
}

// admit makes room for one page, evicting the least recently used page that
// is neither pinned nor sticky; false means every frame is held.
func (m *lruModel) admit(id storage.PageID) bool {
	if len(m.order) >= m.cap {
		i := len(m.order) - 1
		for i >= 0 && (m.pins[m.order[i]] > 0 || m.sticky[m.order[i]]) {
			i--
		}
		if i < 0 {
			return false
		}
		v := m.order[i]
		m.victims = append(m.victims, v)
		m.drop(v)
	}
	m.order = slices.Insert(m.order, 0, id)
	return true
}

func (m *lruModel) pinned() int {
	n := 0
	for _, c := range m.pins {
		if c > 0 {
			n++
		}
	}
	return n
}

// held counts the resident pages eviction must skip.
func (m *lruModel) held() int {
	n := 0
	for _, id := range m.order {
		if m.pins[id] > 0 || m.sticky[id] {
			n++
		}
	}
	return n
}

// TestPoolEvictsAsReferenceLRU drives a one-shard pool with a seeded soup of
// every operation that moves its replacement state — hits and misses through
// Get, New, Stage and Unstage, pins held across operations, dirty and clean
// unpins, Free and EvictAll — and requires, after every step, the resident set
// and the hit, miss and write counts of the reference model, and at the end
// the same sequence of victims. Reusing a departing frame must not change
// which page the next miss evicts.
func TestPoolEvictsAsReferenceLRU(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRand(seed)
		disk := storage.NewDiskManager(64)
		capacity := 2 + r.Intn(7)
		pool := NewPool(disk, capacity, sim.NewMeter())
		m := newLRUModel(capacity)
		var pages []storage.PageID
		for range 3 * capacity {
			pages = append(pages, disk.Allocate())
		}
		var seen []storage.PageID // the victims the pool evicted, read off its resident set
		pick := func() storage.PageID { return pages[r.Intn(len(pages))] }

		for step := range 600 {
			before := slices.Clone(m.order)
			evicting := true
			switch op := r.Intn(20); {
			case op < 8: // Get; hold the pin about a third of the time
				id := pick()
				hit := m.resident(id)
				_, err := pool.Get(id)
				if hit {
					m.hits++
					m.pins[id]++
					m.touch(id)
				} else if m.admit(id) {
					m.misses++
					m.pins[id] = 1
				}
				if (err != nil) != (!hit && !m.resident(id)) {
					t.Fatalf("seed %d step %d: Get of %d: %v, model resident %v", seed, step, id, err, m.resident(id))
				}
				if err == nil && r.Intn(3) != 0 {
					dirty := r.Intn(4) == 0
					pool.Unpin(id, dirty)
					m.pins[id]--
					m.dirty[id] = m.dirty[id] || dirty
				}
			case op < 11: // release a held pin, dirty or clean
				for _, id := range m.order {
					if m.pins[id] > 0 {
						dirty := r.Intn(2) == 0
						pool.Unpin(id, dirty)
						m.pins[id]--
						m.dirty[id] = m.dirty[id] || dirty
						break
					}
				}
			case op < 13: // New: a fresh dirty page, unpinned at once
				id, _, err := pool.New()
				if err != nil {
					if m.held() < capacity {
						t.Fatalf("seed %d step %d: New failed with a free frame: %v", seed, step, err)
					}
					continue
				}
				if !m.admit(id) {
					t.Fatalf("seed %d step %d: New succeeded with every frame held", seed, step)
				}
				pool.Unpin(id, false)
				m.dirty[id] = true
				pages = append(pages, id)
			case op < 15: // Stage: a resident page counts a hit and keeps its place
				id := pick()
				err := pool.Stage(id)
				switch {
				case m.resident(id):
					m.hits++
					m.sticky[id] = true
				case m.admit(id):
					m.misses++
					m.sticky[id] = true
				}
				if (err == nil) != m.resident(id) {
					t.Fatalf("seed %d step %d: Stage of %d: %v, model resident %v", seed, step, id, err, m.resident(id))
				}
			case op < 17: // Unstage
				id := pick()
				pool.Unstage(id)
				delete(m.sticky, id)
			case op < 19: // Free an unpinned page
				evicting = false
				id := pick()
				if m.pins[id] > 0 {
					continue
				}
				if err := pool.Free(id); err != nil {
					t.Fatalf("seed %d step %d: Free of %d: %v", seed, step, id, err)
				}
				delete(m.dirty, id) // its contents are discarded, not written
				m.drop(id)
				pages = slices.DeleteFunc(pages, func(p storage.PageID) bool { return p == id })
				if len(pages) == 0 {
					pages = append(pages, disk.Allocate())
				}
			default: // cold restart when nothing is pinned
				evicting = false
				if m.pinned() > 0 {
					continue
				}
				if err := pool.EvictAll(); err != nil {
					t.Fatalf("seed %d step %d: EvictAll: %v", seed, step, err)
				}
				for _, id := range slices.Clone(m.order) {
					m.drop(id)
				}
			}
			if evicting {
				for _, id := range before {
					if !pool.Contains(id) {
						seen = append(seen, id)
					}
				}
			}
			for _, id := range pages {
				if pool.Contains(id) != m.resident(id) {
					t.Fatalf("seed %d step %d: page %d resident %v, model %v (model order %v)",
						seed, step, id, pool.Contains(id), m.resident(id), m.order)
				}
			}
			// The spare must not reach the ring: stale links would keep
			// departed frames, and buffers already given to the slab, alive.
			if sp := pool.shards[0].spare; sp != nil && (sp.prev != nil || sp.next != nil) {
				t.Fatalf("seed %d step %d: the spare frame still links into the ring", seed, step)
			}
			st := pool.Stats()
			if st.Hits != m.hits || st.Misses != m.misses || st.Writes != m.writes {
				t.Fatalf("seed %d step %d: hits/misses/writes %d/%d/%d, model %d/%d/%d",
					seed, step, st.Hits, st.Misses, st.Writes, m.hits, m.misses, m.writes)
			}
		}
		if !slices.Equal(seen, m.victims) {
			t.Fatalf("seed %d: victims %v, model %v", seed, seen, m.victims)
		}
		if len(m.victims) == 0 {
			t.Fatalf("seed %d: the soup evicted nothing", seed)
		}
	}
}
