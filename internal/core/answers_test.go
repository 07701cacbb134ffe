package core

import (
	"testing"
	"time"

	"specdb/internal/obs"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

func acRows(vals ...int64) []tuple.Row {
	rows := make([]tuple.Row, len(vals))
	for i, v := range vals {
		rows[i] = tuple.Row{tuple.NewInt(v)}
	}
	return rows
}

// staticVersions builds the version callback Get expects from a fixed map
// (missing relations read as version 0, like a freshly-created table).
func staticVersions(m map[string]uint64) func(string) uint64 {
	return func(rel string) uint64 { return m[rel] }
}

func TestAnswerCachePutGetRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	ac := NewAnswerCache(reg, 100)
	vers := map[string]uint64{"R": 3}

	if !ac.Put("k1", acRows(1, 2), nil, sim.Duration(5*time.Second), 4, vers) {
		t.Fatal("Put rejected a fitting entry")
	}
	if got := ac.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}
	if got := ac.Pages(); got != 4 {
		t.Fatalf("Pages = %d", got)
	}

	rows, _, cost, ok := ac.Get("k1", staticVersions(vers))
	if !ok || len(rows) != 2 || cost != sim.Duration(5*time.Second) {
		t.Fatalf("Get = (%v, cost %v, ok %v)", rows, cost, ok)
	}
	if _, _, _, ok := ac.Get("absent", staticVersions(vers)); ok {
		t.Fatal("Get hit an absent key")
	}

	snap := reg.Snapshot()
	if snap.Counters["answers.hits"] != 1 || snap.Counters["answers.misses"] != 1 || snap.Counters["answers.stored"] != 1 {
		t.Fatalf("counters %v", snap.Counters)
	}
}

func TestAnswerCacheVersionInvalidation(t *testing.T) {
	reg := obs.NewRegistry()
	ac := NewAnswerCache(reg, 100)
	ac.Put("k", acRows(1), nil, 1, 2, map[string]uint64{"R": 3, "S": 7})

	// Same versions: still valid.
	if _, _, _, ok := ac.Get("k", staticVersions(map[string]uint64{"R": 3, "S": 7})); !ok {
		t.Fatal("fresh entry missed")
	}
	// A base-table write bumped S: the entry is dropped, not served.
	if _, _, _, ok := ac.Get("k", staticVersions(map[string]uint64{"R": 3, "S": 8})); ok {
		t.Fatal("stale entry served")
	}
	if got := ac.Len(); got != 0 {
		t.Fatalf("stale entry retained: Len = %d", got)
	}
	if got := ac.Pages(); got != 0 {
		t.Fatalf("stale entry's pages retained: %d", got)
	}
	if snap := reg.Snapshot(); snap.Counters["answers.invalidated"] != 1 {
		t.Fatalf("counters %v", snap.Counters)
	}
}

func TestAnswerCacheCapacityAndEviction(t *testing.T) {
	reg := obs.NewRegistry()
	ac := NewAnswerCache(reg, 10)

	// An entry larger than the whole cache is rejected outright.
	if ac.Put("huge", acRows(1), nil, 1, 11, nil) {
		t.Fatal("oversized entry accepted")
	}

	// Fill the cache, then overflow it: victims go least-hit first with
	// key-ascending ties, and the just-stored key is never shed.
	ac.Put("a", acRows(1), nil, 1, 4, nil)
	ac.Put("b", acRows(2), nil, 1, 4, nil)
	ac.Release("a") // producer refs dropped: both evictable
	ac.Release("b")
	if _, _, _, ok := ac.Get("b", nil); !ok { // b now has one hit, a none
		t.Fatal("warming Get missed")
	}
	ac.Put("c", acRows(3), nil, 1, 4, nil)
	if _, _, _, ok := ac.Get("a", nil); ok {
		t.Fatal("least-hit victim a survived over b")
	}
	if _, _, _, ok := ac.Get("b", nil); !ok {
		t.Fatal("more-hit entry b was evicted before a")
	}
	if got := ac.Pages(); got != 8 {
		t.Fatalf("Pages = %d after eviction", got)
	}
	if snap := reg.Snapshot(); snap.Counters["answers.evicted"] != 1 {
		t.Fatalf("counters %v", snap.Counters)
	}

	// A referenced entry is never evicted, even at zero hits: c holds its
	// producer ref, so overflowing now can only shed b.
	ac.Release("b")
	ac.Put("d", acRows(4), nil, 1, 4, nil)
	if _, _, _, ok := ac.Get("c", nil); !ok {
		t.Fatal("referenced entry c was evicted")
	}
	if _, _, _, ok := ac.Get("b", nil); ok {
		t.Fatal("unreferenced b survived over referenced c")
	}
}

// TestAnswerCacheReleaseEnforcesCap: the cache keeps its capacity at rest,
// not only at the next Put. Entries held by their sessions may stand over the
// cap; the release that drops an entry's last reference evicts refs == 0
// entries, least-hit first, until the footprint fits again, and never one
// that a session still holds.
func TestAnswerCacheReleaseEnforcesCap(t *testing.T) {
	reg := obs.NewRegistry()
	ac := NewAnswerCache(reg, 10)
	evicted := func() int64 { return reg.Snapshot().Counters["answers.evicted"] }
	// Three sessions each hold the answer they produced: 12 pages against 10,
	// and Put can shed nothing, since every entry is referenced.
	for _, k := range []string{"a", "b", "c"} {
		if !ac.Put(k, acRows(1), nil, 1, 4, nil) {
			t.Fatalf("Put %s rejected", k)
		}
	}
	if ac.Len() != 3 || ac.Pages() != 12 {
		t.Fatalf("held entries: %d in %d pages, want 3 in 12", ac.Len(), ac.Pages())
	}
	// A release that leaves a reference behind evicts nothing.
	if !ac.Ref("c") {
		t.Fatal("Ref failed")
	}
	ac.Release("c")
	if ac.Len() != 3 || evicted() != 0 {
		t.Fatalf("a release with a reference left evicted: %d entries, %d evicted", ac.Len(), evicted())
	}
	// c's last release: c is the only refs == 0 entry, so it goes, although
	// it has more hits than a, which a session still holds.
	ac.Get("c", nil)
	ac.Release("c")
	if _, ok := ac.entries["c"]; ok || ac.Pages() != 8 || evicted() != 1 || reg.Snapshot().Gauges["answers.pages"] != 8 {
		t.Fatalf("after c's last release: c kept %v, %d pages, %d evicted, gauge %v",
			ok, ac.Pages(), evicted(), reg.Snapshot().Gauges["answers.pages"])
	}
	if _, _, _, ok := ac.Get("a", nil); !ok {
		t.Fatal("a session's ready answer was evicted when another session released")
	}
	// At or under capacity a last release keeps the entry: an asset for later
	// replays.
	ac.Release("b")
	if ac.Len() != 2 || ac.Pages() != 8 || evicted() != 1 {
		t.Fatalf("a release under the cap evicted: %d entries in %d pages", ac.Len(), ac.Pages())
	}

	// Several unreferenced entries over the cap, as a cache shrunk under
	// them leaves: the last release sheds least-hit first, key-ascending on
	// ties, and stops as soon as the footprint fits.
	ac = NewAnswerCache(reg, 100)
	for _, k := range []string{"p", "q", "r", "s"} {
		ac.Put(k, acRows(1), nil, 1, 4, nil)
	}
	for _, k := range []string{"p", "q", "r"} {
		ac.Release(k)
	}
	for k, hits := range map[string]int{"p": 2, "q": 0, "r": 1} {
		for range hits {
			ac.Get(k, nil)
		}
	}
	ac.capacity = 8
	ac.Release("s") // 16 pages: q (0 hits) then s (0 hits, key after q) go
	for k, want := range map[string]bool{"p": true, "q": false, "r": true, "s": false} {
		if _, ok := ac.entries[k]; ok != want {
			t.Errorf("entry %s kept %v, want %v", k, ok, want)
		}
	}
	if ac.Pages() != 8 {
		t.Fatalf("Pages = %d after the last release, want 8", ac.Pages())
	}
}

func TestAnswerCacheRefReleaseSemantics(t *testing.T) {
	ac := NewAnswerCache(nil, 10)
	ac.Put("k", acRows(1), nil, 1, 2, nil)

	if !ac.Ref("k") {
		t.Fatal("Ref on live key failed")
	}
	if ac.Ref("absent") {
		t.Fatal("Ref on absent key succeeded")
	}
	// Put holds one producer ref; one Ref makes two. Releases never delete:
	// the entry stays cached (an asset for future replays), merely evictable.
	ac.Release("k")
	ac.Release("k")
	ac.Release("k") // extra release on refs == 0 is a no-op, not a panic
	if got := ac.Len(); got != 1 {
		t.Fatalf("release deleted the entry: Len = %d", got)
	}
	if _, _, _, ok := ac.Get("k", nil); !ok {
		t.Fatal("entry vanished after releases")
	}
}

// TestAnswerCacheReplaceKeepsRefcount: a Put over an existing key keeps the
// references already held and adds the replacing caller's own.
func TestAnswerCacheReplaceKeepsRefcount(t *testing.T) {
	ac := NewAnswerCache(nil, 10)
	ac.Put("k", acRows(1), nil, 1, 2, map[string]uint64{"R": 1})
	if !ac.Ref("k") {
		t.Fatal("Ref failed")
	}
	// Replacing refreshes contents, versions, and footprint.
	if !ac.Put("k", acRows(7, 8, 9), nil, 2, 5, map[string]uint64{"R": 2}) {
		t.Fatal("replace rejected")
	}
	if got := ac.entries["k"].refs; got != 3 {
		t.Fatalf("refs = %d after a referenced entry was replaced, want the two held plus the replacer's", got)
	}
	if got := ac.Pages(); got != 5 {
		t.Fatalf("Pages = %d after replace", got)
	}
	rows, _, _, ok := ac.Get("k", staticVersions(map[string]uint64{"R": 2}))
	if !ok || len(rows) != 3 {
		t.Fatalf("replaced entry Get = (%v, %v)", rows, ok)
	}
	// Old version must no longer validate.
	if _, _, _, ok := ac.Get("k", staticVersions(map[string]uint64{"R": 1})); ok {
		t.Fatal("replaced entry served under stale versions")
	}
}

func TestAnswerCacheNilSafety(t *testing.T) {
	var ac *AnswerCache
	if ac.Put("k", nil, nil, 0, 1, nil) {
		t.Fatal("nil cache accepted a Put")
	}
	if _, _, _, ok := ac.Get("k", nil); ok {
		t.Fatal("nil cache hit")
	}
	if ac.Ref("k") {
		t.Fatal("nil cache Ref succeeded")
	}
	ac.Release("k")
	if ac.Len() != 0 || ac.Pages() != 0 {
		t.Fatal("nil cache has contents")
	}
}
