package lint

import (
	"fmt"
	"regexp"
	"strings"
)

// The lock-hierarchy manifest is the machine-readable form of DESIGN.md §6's
// declared ordering:
//
//	engine → catalog → table → heap/btree → pool → disk
//
// A lock may be acquired while holding any lock of an earlier (or the same)
// level; acquiring an earlier-level lock while holding a later one is an
// inversion the lockorder rule reports with its witness call path. Locks on
// types not listed here (observability registries, the sim clock, the fault
// injector, core's ledger and the governor's band, neither taken under the
// other) are leaves of the hierarchy by convention — they are unranked, exempt from the
// manifest-order check, but still participate fully in cycle detection.
//
// TestLockOrderManifestMatchesDesign cross-checks the level names below
// against the prose hierarchy in DESIGN.md §6, and
// TestLockOrderManifestTypesExist checks every listed type still exists and
// still carries a mutex, so the manifest cannot silently drift from either
// the document or the code.

// manifestLevel is one rank of the hierarchy: its DESIGN.md name and the
// fully-qualified named types whose mutexes live at that rank.
type manifestLevel struct {
	Name  string
	Types []string
}

// lockHierarchy returns the manifest, outermost level first. Type strings
// are module-relative ("specdb/internal/engine.Engine") and cover unexported
// types too — the sharded pool's lock lives on its unexported shard.
func lockHierarchy() []manifestLevel {
	return []manifestLevel{
		{Name: "engine", Types: []string{
			"specdb/internal/engine.Engine",
		}},
		{Name: "catalog", Types: []string{
			"specdb/internal/catalog.Catalog",
		}},
		{Name: "table", Types: []string{
			"specdb/internal/catalog.Table",
		}},
		{Name: "heap/btree", Types: []string{
			"specdb/internal/storage.HeapFile",
			"specdb/internal/btree.BTree",
		}},
		{Name: "pool", Types: []string{
			// The pool's lock lives on its unexported shards; Pool itself
			// holds no mutex.
			"specdb/internal/buffer.shard",
		}},
		{Name: "disk", Types: []string{
			"specdb/internal/storage.DiskManager",
			"specdb/internal/storage.FileDisk",
		}},
	}
}

// lockedCallbacks lists the functions that run a function-typed argument
// while holding a lock, keyed by types.Func.FullName, with the lock held. The
// call graph cannot follow a function value, so without this list a statement
// body that enters another statement — a recursive RLock of Engine.stmtMu,
// which deadlocks as soon as a writer waits in between — would be invisible.
// statement is the one function that locks; measured and mutate hand their
// argument on to it. TestLockedCallbacksExist keeps the names honest.
func lockedCallbacks() map[string]lockSym {
	stmtMu := lockSym{Owner: "specdb/internal/engine.Engine", Field: "stmtMu"}
	return map[string]lockSym{
		"(*specdb/internal/engine.Engine).statement": stmtMu,
		"(*specdb/internal/engine.Engine).measured":  stmtMu,
		"(*specdb/internal/engine.Engine).mutate":    stmtMu,
	}
}

// lockRanks maps each ranked owner type to its level index (0 = outermost).
func lockRanks() map[string]int {
	out := map[string]int{}
	for i, lvl := range lockHierarchy() {
		for _, t := range lvl.Types {
			out[t] = i
		}
	}
	return out
}

// hierarchyString renders the manifest levels as the DESIGN.md arrow chain.
func hierarchyString() string {
	levels := lockHierarchy()
	names := make([]string, len(levels))
	for i, l := range levels {
		names[i] = l.Name
	}
	return strings.Join(names, " → ")
}

// designHierarchyRe extracts the declared ordering from DESIGN.md §6's
// sentence "The lock ordering runs engine → catalog → …, and …".
var designHierarchyRe = regexp.MustCompile(`lock ordering runs ([^,.]+)`)

// CrossCheckManifest verifies the manifest's level names against the prose
// hierarchy in the given DESIGN.md contents. It returns an error when the
// document's chain and the manifest disagree, so neither can be edited
// without the other.
func CrossCheckManifest(design []byte) error {
	text := strings.Join(strings.Fields(string(design)), " ")
	m := designHierarchyRe.FindStringSubmatch(text)
	if m == nil {
		return fmt.Errorf("lint: DESIGN.md no longer states the lock ordering (wanted \"lock ordering runs <a> → <b> → …\")")
	}
	var doc []string
	for _, part := range strings.Split(m[1], "→") {
		if p := strings.TrimSpace(part); p != "" {
			doc = append(doc, p)
		}
	}
	levels := lockHierarchy()
	if len(doc) != len(levels) {
		return fmt.Errorf("lint: DESIGN.md hierarchy has %d levels (%s), manifest has %d (%s)",
			len(doc), strings.Join(doc, " → "), len(levels), hierarchyString())
	}
	for i, l := range levels {
		if doc[i] != l.Name {
			return fmt.Errorf("lint: hierarchy level %d: DESIGN.md says %q, manifest says %q", i, doc[i], l.Name)
		}
	}
	return nil
}
