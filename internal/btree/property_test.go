package btree

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"specdb/internal/buffer"
	"specdb/internal/sim"
	"specdb/internal/storage"
)

// modelEntry mirrors one tree entry in the reference model.
type modelEntry struct {
	key []byte
	rid storage.RID
}

type refModel struct {
	entries []modelEntry // sorted by (key, RID)
}

func (m *refModel) less(a, b modelEntry) bool {
	c := bytes.Compare(a.key, b.key)
	if c != 0 {
		return c < 0
	}
	return compareRID(a.rid, b.rid) < 0
}

func (m *refModel) insert(e modelEntry) {
	i := sort.Search(len(m.entries), func(i int) bool { return !m.less(m.entries[i], e) })
	m.entries = append(m.entries, modelEntry{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// scanRange returns the model's entries with lo ≤ key ≤ hi (nil = unbounded,
// always inclusive — matching how the test drives tree.Scan).
func (m *refModel) scanRange(lo, hi []byte) []modelEntry {
	var out []modelEntry
	for _, e := range m.entries {
		if lo != nil && bytes.Compare(e.key, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(e.key, hi) > 0 {
			break
		}
		out = append(out, e)
	}
	return out
}

// TestBTreePropertyRandomOps drives randomized insert/range-scan sequences
// against a sorted reference model, checking structural invariants after
// every insert and full equivalence periodically. A small page size forces
// frequent splits, a small key domain forces duplicates.
func TestBTreePropertyRandomOps(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBTreeProperty(t, seed, 1200)
		})
	}
}

func runBTreeProperty(t *testing.T, seed uint64, ops int) {
	const pageSize = 256 // tiny pages: a split every few entries
	disk := storage.NewDiskManager(pageSize)
	pool := buffer.NewPool(disk, 64, sim.NewMeter())
	tree, err := New(pool, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRandStream(seed, "btree-property")
	model := &refModel{}
	nextRID := int32(0)
	keyOf := func(v int) []byte { return intKey(int64(v)) }

	for op := 0; op < ops; op++ {
		k := keyOf(rng.Intn(64)) // small domain → duplicates
		nextRID++
		rid := storage.RID{Page: nextRID, Slot: nextRID % 7}
		if err := tree.Insert(k, rid); err != nil {
			t.Fatalf("op %d: insert: %v", op, err)
		}
		model.insert(modelEntry{key: k, rid: rid})
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if tree.Len() != int64(len(model.entries)) {
			t.Fatalf("op %d: tree has %d entries, model %d", op, tree.Len(), len(model.entries))
		}
		if op%50 == 0 {
			checkEquivalence(t, op, tree, model, rng, keyOf)
		}
	}
	checkEquivalence(t, ops, tree, model, rng, keyOf)
	if tree.Splits() == 0 {
		t.Fatal("workload never exercised a split; tighten the parameters")
	}
}

// checkEquivalence compares a full scan and one random range scan against the
// model.
func checkEquivalence(t *testing.T, op int, tree *BTree, model *refModel, rng *sim.Rand, keyOf func(int) []byte) {
	t.Helper()
	compareScan(t, op, "full", tree, Unbounded, Unbounded, model.scanRange(nil, nil))
	a, b := rng.Intn(64), rng.Intn(64)
	if a > b {
		a, b = b, a
	}
	lo, hi := keyOf(a), keyOf(b)
	compareScan(t, op, "range", tree, Exact(lo), Exact(hi), model.scanRange(lo, hi))
}

func compareScan(t *testing.T, op int, what string, tree *BTree, lo, hi Bound, want []modelEntry) {
	t.Helper()
	var got []modelEntry
	err := tree.Scan(lo, hi, func(key []byte, rid storage.RID) error {
		got = append(got, modelEntry{key: append([]byte(nil), key...), rid: rid})
		return nil
	})
	if err != nil {
		t.Fatalf("op %d: %s scan: %v", op, what, err)
	}
	if len(got) != len(want) {
		t.Fatalf("op %d: %s scan returned %d entries, model has %d", op, what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].key, want[i].key) || got[i].rid != want[i].rid {
			t.Fatalf("op %d: %s scan diverges at %d: got (%x,%v) want (%x,%v)",
				op, what, i, got[i].key, got[i].rid, want[i].key, want[i].rid)
		}
	}
}
