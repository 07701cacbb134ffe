package exec

import (
	"fmt"
	"math"
	"math/bits"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/slab"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// HashJoin is an in-memory equi-join: the left child is built into a hash
// table at Open, the right child probes it. The planner puts the smaller
// estimated side on the left. The build rows are the only rows it keeps
// (copied once, into a recycled arena given back at Close, with the table's
// arrays, and only the columns it or its consumers read, a pruned row
// followed by its stored length); a probe row is borrowed from the right child
// for as long as its matches are being emitted, and every match is assembled
// in the one join-owned output row — or, under a Project, written by the
// Project straight from the two rows — so no build row is ever lent out.
//
// A join on several edges hashes on the first and tests the others on each
// (build row, probe row) pair the table proposes, before anything is copied:
// most candidates of a two-edge join fail the second edge.
type HashJoin struct {
	ctx         *Context
	left, right Iterator
	leftOrd     int
	rightOrd    int
	// residual are the join's other edges: LeftOrd is a column of the build
	// row, RightOrd one of the probe row.
	residual []ColPred
	schema   *tuple.Schema

	// keep are the columns of a build row the join keeps: those its
	// consumers read (Prune) and those its edges compare. A kept build row
	// holds only these, back to back. probeLive are the probe row's columns
	// its consumers read.
	keep, probeLive tuple.ColSet
	nl              int // build columns: where the probe's start in an output row

	arena      rowArena
	table      joinTable
	emptyBuild bool
	// spill accounting (see Context.WorkMemBytes): when the build side
	// exceeds work memory, both sides are partitioned through disk.
	spilled    bool
	spillBytes int64
	// probe state: the borrowed right row and 1 + its next match (0: none)
	current tuple.Row
	match   int32
	out     tuple.Row
	last    int32 // the returned match's build row
	// gate is the key test handed to the right child, which took it if gated.
	gate  KeyGate
	gated bool
}

// KeyGate is a hash join's probe-key test, handed down to its probe child at
// Open (DESIGN.md §15, "What a scan decodes"). A child that takes it reads the
// join column of each stored record and looks it up in the build table before
// it decodes the record. A record with no match is skipped undecoded and
// counted here; a row the child returns comes with its first match, so the
// join looks up nothing itself. The join reads and resets the counts after
// every pull, and counts and spills each skipped record as the probe row it
// would have been.
type KeyGate struct {
	table *joinTable
	ord   int // the join column in the child's rows
	// match refers to the first build row matching the row last returned.
	match int32
	// skipped counts the records skipped since the join last read it, and
	// skippedBytes their stored length, what the join charges a probe row's
	// spill by.
	skipped, skippedBytes int64
}

// Gated is implemented by an iterator that can take a hash join's key test
// (KeyGate). Gate reports whether it did; if not, the join looks every probe
// key up itself. A wrapper that only observes its iterator forwards the call.
type Gated interface {
	Gate(g *KeyGate) bool
}

// JoinEdge names one equi-join edge of a join: a column of the left (build)
// child and the column of the right (probe) child it must equal.
type JoinEdge struct {
	LeftCol, RightCol string
}

// NewHashJoin joins left and right on leftCol = rightCol (names resolved in
// each child's schema) and on every edge of residual. The hashed columns must
// have the same kind; the planner's binder guarantees this, and it matters
// because hash keys are compared as key images, not as values. Residual edges
// are compared as values, the way a ColFilter over the joined row compares
// them.
func NewHashJoin(ctx *Context, left, right Iterator, leftCol, rightCol string, residual ...JoinEdge) (*HashJoin, error) {
	lo := left.Schema().Ordinal(leftCol)
	if lo < 0 {
		return nil, fmt.Errorf("exec: hash join: no column %q on build side", leftCol)
	}
	ro := right.Schema().Ordinal(rightCol)
	if ro < 0 {
		return nil, fmt.Errorf("exec: hash join: no column %q on probe side", rightCol)
	}
	lk := left.Schema().Columns[lo].Kind
	rk := right.Schema().Columns[ro].Kind
	if lk != rk {
		return nil, fmt.Errorf("exec: hash join kind mismatch: %v vs %v", lk, rk)
	}
	var preds []ColPred
	for _, e := range residual {
		p := ColPred{LeftOrd: left.Schema().Ordinal(e.LeftCol), Op: tuple.CmpEQ, RightOrd: right.Schema().Ordinal(e.RightCol)}
		if p.LeftOrd < 0 {
			return nil, fmt.Errorf("exec: hash join: no column %q on build side", e.LeftCol)
		}
		if p.RightOrd < 0 {
			return nil, fmt.Errorf("exec: hash join: no column %q on probe side", e.RightCol)
		}
		preds = append(preds, p)
	}
	schema := left.Schema().Concat(right.Schema())
	return &HashJoin{
		ctx:       ctx,
		left:      left,
		right:     right,
		leftOrd:   lo,
		rightOrd:  ro,
		residual:  preds,
		schema:    schema,
		keep:      tuple.AllCols,
		probeLive: tuple.AllCols,
		nl:        left.Schema().Len(),
		out:       make(tuple.Row, schema.Len()),
	}, nil
}

// Prune implements Pruner: the join copies only the live columns of a match
// into its output row, keeps only those of a build row and the ones its edges
// compare, and asks its children for no more.
func (j *HashJoin) Prune(live tuple.ColSet) {
	left, probeLive := live.Split(j.nl)
	left, right := left.With(j.leftOrd), probeLive.With(j.rightOrd)
	for _, p := range j.residual {
		left, right = left.With(p.LeftOrd), right.With(p.RightOrd)
	}
	j.keep, j.probeLive = left.Over(j.nl), probeLive.Over(j.schema.Len()-j.nl)
	prune(j.left, left)
	prune(j.right, right)
}

// Open builds the hash table from the left child.
func (j *HashJoin) Open() error {
	j.current, j.match = nil, 0
	if err := j.left.Open(); err != nil {
		return err
	}
	j.arena = rowArena{width: keptWidth(j.keep, j.nl), recycle: true}
	var buildBytes int64
	for {
		row, ok, err := j.left.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		stored := j.left.StoredLen()
		j.arena.keepLive(row, j.keep, stored)
		j.ctx.count(1)
		buildBytes += int64(stored)
	}
	if err := j.left.Close(); err != nil {
		return err
	}
	if j.ctx.WorkMemBytes > 0 && buildBytes > j.ctx.WorkMemBytes {
		// GRACE-style spill: the build side is written out as partitions
		// and read back; the probe side pays the same toll as it streams
		// (charged incrementally in Next).
		j.spilled = true
		pages := buildBytes/pageSizeForSpill + 1
		j.ctx.Meter.ChargePageWrite(pages)
		j.ctx.Meter.ChargePageRead(pages)
	}
	rows := j.arena.rows()
	if len(rows) == 0 {
		// Empty build side: no row can match; skip scanning the probe side
		// entirely (it may be a large forced materialization).
		j.emptyBuild = true
		return nil
	}
	if err := j.table.build(rows, j.keep.Rank(j.leftOrd), j.left.Schema().Columns[j.leftOrd].Kind); err != nil {
		return err
	}
	j.gate = KeyGate{table: &j.table, ord: j.rightOrd}
	g, ok := asGated(j.right)
	j.gated = ok && g.Gate(&j.gate)
	return j.right.Open()
}

// Next emits the next (left ++ right) match, its live columns written.
func (j *HashJoin) Next() (tuple.Row, bool, error) {
	build, ok, err := j.advance()
	if !ok || err != nil {
		return nil, false, err
	}
	spread(j.out[:j.nl], build, j.keep)
	copyLive(j.out[j.nl:], j.current, j.probeLive)
	return j.out, true, nil
}

// project writes the columns ords of the match (build, the current probe
// row) to dst, in that order: a Project's write, with no output row between.
func (j *HashJoin) project(dst, build tuple.Row, ords []int) {
	for i, o := range ords {
		if o < j.nl {
			dst[i] = build[j.keep.Rank(o)]
		} else {
			dst[i] = j.current[o-j.nl]
		}
	}
}

// advance moves to the next match and returns its kept build row; its probe
// row is j.current. It counts what a match counts, and assembles nothing.
func (j *HashJoin) advance() (tuple.Row, bool, error) {
	if j.emptyBuild {
		return nil, false, nil
	}
	for {
		for j.match != 0 {
			m := j.match - 1
			build := j.table.rows[m]
			j.match = j.table.next[m]
			j.ctx.count(1)
			if len(j.residual) != 0 {
				// A candidate also counts as the input of the ColFilter that
				// used to stand over the join, whether or not it passes.
				j.ctx.count(1)
				if !j.residualHolds(build) {
					continue
				}
			}
			j.last = m
			return build, true, nil
		}
		row, ok, err := j.right.Next()
		j.probed(ok && err == nil)
		if err != nil || !ok {
			return nil, false, err
		}
		// row stays valid until the next pull from the right child, which
		// happens only once its matches are exhausted.
		j.current = row
		if j.gated {
			j.match = j.gate.match
		} else {
			j.match = j.table.lookup(row[j.rightOrd])
		}
	}
}

// probed counts the probe rows one pull from the right child consumed — the
// records a gated child skipped, and the returned row if ok — and, when the
// join spilled, charges the pages their stored bytes fill. It runs on every
// pull, the last one too, so the skipped records at the end of the stream are
// charged as well.
func (j *HashJoin) probed(ok bool) {
	n, bytes := j.gate.skipped, j.gate.skippedBytes
	j.gate.skipped, j.gate.skippedBytes = 0, 0
	if ok {
		n++
		if j.spilled {
			bytes += int64(j.right.StoredLen())
		}
	}
	j.ctx.count(n)
	if !j.spilled {
		return
	}
	j.spillBytes += bytes
	for j.spillBytes >= pageSizeForSpill {
		j.spillBytes -= pageSizeForSpill
		j.ctx.Meter.ChargePageWrite(1)
		j.ctx.Meter.ChargePageRead(1)
	}
}

// residualHolds tests the join's other edges on (build, the current probe row).
func (j *HashJoin) residualHolds(build tuple.Row) bool {
	for _, p := range j.residual {
		if !p.Op.Eval(build[j.keep.Rank(p.LeftOrd)], j.current[p.RightOrd]) {
			return false
		}
	}
	return true
}

// pageSizeForSpill is the unit for spill I/O accounting.
const pageSizeForSpill = 8192

// Close closes both children and gives the hash table and its arena back to
// their slabs.
func (j *HashJoin) Close() error {
	j.table.release()
	j.arena.release()
	j.current, j.match = nil, 0
	j.emptyBuild = false
	j.spilled = false
	j.spillBytes = 0
	j.ctx.flush()
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}

// Schema is left ++ right.
func (j *HashJoin) Schema() *tuple.Schema { return j.schema }

// StoredLen implements Iterator: the build row's length plus the probe row's.
func (j *HashJoin) StoredLen() int {
	return storedLen(j.table.rows[j.last], j.left.Schema(), j.keep) + j.right.StoredLen()
}

// joinTable is the hash join's table: open addressing over the build rows,
// with the rows of one key chained in build order. Match order within a key
// must be build order — answers are compared as multisets, but a materialized
// view stores rows as emitted and later page counts depend on that order.
//
// A key is a 64-bit image of the join value: tuple.KeyBitsOf for int, date and
// float columns, where equal images mean equal values, and a hash for string
// columns, where the slot search also compares the strings. Everything is
// sized once, after the build side has been drained and its row count is
// known, from the slabs, and given back by release. Row references
// are 1 + the row's index, so that 0 means none.
type joinTable struct {
	rows  []tuple.Row // build rows in build order
	ord   int         // join column within a build row
	kind  tuple.Kind  // the join column's kind, on both sides
	keys  []uint64    // keys[i] is the key image of rows[i]
	next  []int32     // next[i] refers to the following row with rows[i]'s key
	slots []int32     // slots[p] refers to the first row of the key hashed to p
	shift uint        // 64 − log2(len(slots))
}

// keyImage is the key of v, a value of kind k.
func keyImage(k tuple.Kind, v tuple.Value) uint64 {
	if k != tuple.KindString {
		return tuple.KeyBitsOf(k, v)
	}
	h := uint64(14695981039346656037) // FNV-1a
	s := v.Str()
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// build indexes rows on column ord, of kind k.
func (t *joinTable) build(rows []tuple.Row, ord int, k tuple.Kind) error {
	if len(rows) > math.MaxInt32 {
		return fmt.Errorf("exec: hash join build side of %d rows exceeds the table's 2^31−1", len(rows))
	}
	size := 2 * len(rows) // load factor ≤ 1/2
	logSize := uint(bits.Len(uint(size - 1)))
	t.rows, t.ord, t.kind = rows, ord, k
	t.keys = slab.Uint64s.Take(len(rows))
	t.next = int32Slabs.Take(len(rows))
	t.slots = int32Slabs.Take(1 << logSize)
	clear(t.slots) // an empty slot is 0; keys and next are written below
	t.shift = 64 - logSize
	// Inserting last row first and pushing each row at the head of its chain
	// leaves every chain in build order.
	for i := len(rows) - 1; i >= 0; i-- {
		v := rows[i][ord]
		img := keyImage(k, v)
		t.keys[i] = img
		p := t.slot(img, v)
		t.next[i] = t.slots[p]
		t.slots[p] = int32(i) + 1
	}
	return nil
}

// release gives the table's arrays back to their slabs and empties it.
func (t *joinTable) release() {
	if t.keys != nil {
		slab.Uint64s.Give(t.keys)
		int32Slabs.Give(t.next)
		int32Slabs.Give(t.slots)
	}
	*t = joinTable{}
}

// slot finds the slot holding v's chain, or the empty slot where it belongs.
func (t *joinTable) slot(k uint64, v tuple.Value) uint64 {
	mask := uint64(len(t.slots) - 1)
	for p := (k * 0x9E3779B97F4A7C15) >> t.shift; ; p = (p + 1) & mask {
		head := t.slots[p]
		if head == 0 {
			return p
		}
		if t.keys[head-1] == k && (t.kind != tuple.KindString || t.rows[head-1][t.ord].Str() == v.Str()) {
			return p
		}
	}
}

// lookup returns a reference to the first build row matching v.
func (t *joinTable) lookup(v tuple.Value) int32 {
	return t.slots[t.slot(keyImage(t.kind, v), v)]
}

// IndexNLJoin drives the outer child and, for each outer row, probes an index
// on the inner base table — the access path whose absence on freshly
// materialized relations is the paper's main source of speculation penalties
// (Section 6.1). The outer row is borrowed while its matches are emitted; the
// matching inner records are tested against the inner selections and, if they
// pass, their live columns decoded under their page pins into one reused
// buffer, and every match is assembled in the one join-owned output row.
type IndexNLJoin struct {
	ctx       *Context
	outer     Iterator
	outerOrd  int
	outerKind tuple.Kind // the outer join column's: every probe key's
	inner     *catalog.Table
	index     *catalog.Index
	// innerPreds filter inner records (selections on the inner relation),
	// compiled against the inner's stored schema.
	innerPreds  []Pred
	innerSchema *tuple.Schema
	schema      *tuple.Schema
	// outerLive and innerLive are the columns of each side the join's
	// consumers read (Prune).
	outerLive, innerLive tuple.ColSet
	no                   int // outer columns: where the inner's start in an output row

	current tuple.Row // the borrowed outer row
	// pending are its matching inner rows, back to back, as a join side
	// keeps them (keepLive), and pos indexes the next to emit.
	pending []tuple.Value
	pos     int
	out     tuple.Row
	keyBuf  []byte
	// visit and decode are the Scan and View callbacks, built once so a
	// probe allocates no closure.
	visit  func(key []byte, rid storage.RID) error
	decode func(rec []byte) error
}

// NewIndexNLJoin joins outer to inner on outerCol = index.Column.
func NewIndexNLJoin(ctx *Context, outer Iterator, outerCol string, inner *catalog.Table, index *catalog.Index, qualifier string, innerPreds []Pred) (*IndexNLJoin, error) {
	oo := outer.Schema().Ordinal(outerCol)
	if oo < 0 {
		return nil, fmt.Errorf("exec: index join: no outer column %q", outerCol)
	}
	innerSchema := qualify(inner, qualifier)
	schema := outer.Schema().Concat(innerSchema)
	j := &IndexNLJoin{
		ctx:         ctx,
		outer:       outer,
		outerOrd:    oo,
		outerKind:   outer.Schema().Columns[oo].Kind,
		inner:       inner,
		index:       index,
		innerPreds:  innerPreds,
		innerSchema: innerSchema,
		schema:      schema,
		outerLive:   tuple.AllCols,
		innerLive:   tuple.AllCols,
		no:          outer.Schema().Len(),
		out:         make(tuple.Row, schema.Len()),
	}
	width := inner.Schema.Len()
	j.decode = func(rec []byte) error {
		pass, err := holds(rec, inner.Schema, j.innerPreds)
		if err != nil {
			return err
		}
		if pass {
			// Decode at the tail of pending.
			n := len(j.pending)
			j.pending = append(j.pending, make([]tuple.Value, j.pendingWidth())...)
			if _, err := tuple.DecodeLive(j.pending[n:n+width], rec, inner.Schema, j.innerLive, nil); err != nil {
				return err
			}
			if j.innerLive != tuple.AllCols {
				j.pending[len(j.pending)-1] = tuple.NewInt(int64(len(rec)))
			}
		}
		j.ctx.count(1)
		return nil
	}
	j.visit = func(_ []byte, rid storage.RID) error { return inner.Heap.View(ctx.Pool, rid, j.decode) }
	return j, nil
}

// Prune implements Pruner: the join writes only the live columns of a match,
// decodes only the live inner columns, and asks its outer child for the live
// outer ones and the join column.
func (j *IndexNLJoin) Prune(live tuple.ColSet) {
	outer, inner := live.Split(j.no)
	j.outerLive, j.innerLive = outer.Over(j.no), inner.Over(j.innerSchema.Len())
	prune(j.outer, outer.With(j.outerOrd))
}

// Open opens the outer child.
func (j *IndexNLJoin) Open() error { return j.outer.Open() }

// Next emits the next (outer ++ inner) match.
func (j *IndexNLJoin) Next() (tuple.Row, bool, error) {
	for {
		if inner := j.pendingRow(j.pos); inner != nil {
			copyLive(j.out[:j.no], j.current, j.outerLive)
			copyLive(j.out[j.no:], inner, j.innerLive)
			j.pos++
			j.ctx.count(1)
			return j.out, true, nil
		}
		row, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.ctx.count(1)
		j.keyBuf = tuple.EncodeKeyOf(j.keyBuf[:0], j.outerKind, row[j.outerOrd])
		j.pending, j.pos = j.pending[:0], 0
		if err := j.index.Tree.ScanVia(j.ctx.Pool, btree.Exact(j.keyBuf), btree.Exact(j.keyBuf), j.visit); err != nil {
			return nil, false, err
		}
		// row stays valid until the next pull from the outer child, which
		// happens only once its matches are exhausted.
		j.current = row
	}
}

// Close closes the outer child and drops the match buffer.
func (j *IndexNLJoin) Close() error {
	j.current, j.pending, j.pos = nil, nil, 0
	j.ctx.flush()
	return j.outer.Close()
}

// Schema is outer ++ inner.
func (j *IndexNLJoin) Schema() *tuple.Schema { return j.schema }

// StoredLen implements Iterator: the outer row's length plus the inner
// record's.
func (j *IndexNLJoin) StoredLen() int {
	return j.outer.StoredLen() + storedLen(j.pendingRow(j.pos-1), j.inner.Schema, j.innerLive)
}

// pendingWidth is the width of a pending inner row: decoded in place, and
// followed by its record's length when pruned, as keepLive keeps one.
func (j *IndexNLJoin) pendingWidth() int {
	if j.innerLive == tuple.AllCols {
		return j.innerSchema.Len()
	}
	return j.innerSchema.Len() + 1
}

// pendingRow is the k-th pending inner row, nil past the last.
func (j *IndexNLJoin) pendingRow(k int) tuple.Row {
	w := j.pendingWidth()
	if (k+1)*w > len(j.pending) {
		return nil
	}
	return j.pending[k*w : (k+1)*w]
}

// CrossJoin is a nested-loop cross product with the inner side materialized
// at Open. The planner only emits it for queries whose graph is disconnected
// (transient states while a user assembles a query).
type CrossJoin struct {
	ctx          *Context
	outer, inner Iterator
	schema       *tuple.Schema
	// outerLive and innerLive are the columns of each side the join's
	// consumers read (Prune); a kept inner row holds only the latter.
	outerLive, innerLive tuple.ColSet
	no                   int // outer columns: where the inner's start in an output row

	kept      rowArena    // the inner side, recycled at Close
	innerRows []tuple.Row // cut from kept
	current   tuple.Row   // the borrowed outer row
	pos       int
	haveOuter bool
	out       tuple.Row
}

// NewCrossJoin builds outer × inner.
func NewCrossJoin(ctx *Context, outer, inner Iterator) *CrossJoin {
	schema := outer.Schema().Concat(inner.Schema())
	return &CrossJoin{
		ctx:       ctx,
		outer:     outer,
		inner:     inner,
		schema:    schema,
		outerLive: tuple.AllCols,
		innerLive: tuple.AllCols,
		no:        outer.Schema().Len(),
		out:       make(tuple.Row, schema.Len()),
	}
}

// Prune implements Pruner: each side is asked for its live columns only.
func (j *CrossJoin) Prune(live tuple.ColSet) {
	outer, inner := live.Split(j.no)
	j.outerLive, j.innerLive = outer.Over(j.no), inner.Over(j.inner.Schema().Len())
	prune(j.outer, outer)
	prune(j.inner, inner)
}

// Open materializes the inner side.
func (j *CrossJoin) Open() error {
	if err := j.outer.Open(); err != nil {
		return err
	}
	j.kept = rowArena{width: keptWidth(j.innerLive, j.inner.Schema().Len()), recycle: true}
	if err := Drain(j.inner, func(r tuple.Row) error {
		j.kept.keepLive(r, j.innerLive, j.inner.StoredLen())
		return nil
	}); err != nil {
		return err
	}
	j.innerRows = j.kept.rows()
	j.pos = 0
	j.haveOuter = false
	return nil
}

// Next emits the next pair.
func (j *CrossJoin) Next() (tuple.Row, bool, error) {
	for {
		if j.haveOuter && j.pos < len(j.innerRows) {
			copyLive(j.out, j.current, j.outerLive)
			spread(j.out[j.no:], j.innerRows[j.pos], j.innerLive)
			j.pos++
			j.ctx.count(1)
			return j.out, true, nil
		}
		row, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.ctx.count(1)
		if len(j.innerRows) == 0 {
			return nil, false, nil // empty inner: empty product
		}
		// row stays valid until the next pull from the outer child.
		j.current = row
		j.pos = 0
		j.haveOuter = true
	}
}

// Close closes the outer child (the inner was closed by its drain at Open)
// and gives the materialized inner side back to the slabs.
func (j *CrossJoin) Close() error {
	j.kept.release()
	j.innerRows, j.current, j.haveOuter = nil, nil, false
	j.ctx.flush()
	return j.outer.Close()
}

// Schema is outer ++ inner.
func (j *CrossJoin) Schema() *tuple.Schema { return j.schema }

// StoredLen implements Iterator: the outer row's length plus the inner row's.
func (j *CrossJoin) StoredLen() int {
	return j.outer.StoredLen() + storedLen(j.innerRows[j.pos-1], j.inner.Schema(), j.innerLive)
}
