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
// arrays); a probe row is borrowed from the right child for as long as its
// matches are being emitted, and every match is assembled in the one
// join-owned output row, so no build row is ever lent out.
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
	// skippedBytes their stored length: a record's length is EncodedSize of
	// its decoded row, what the join charges a probe row's spill by.
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
		ctx:      ctx,
		left:     left,
		right:    right,
		leftOrd:  lo,
		rightOrd: ro,
		residual: preds,
		schema:   schema,
		out:      make(tuple.Row, schema.Len()),
	}, nil
}

// Open builds the hash table from the left child.
func (j *HashJoin) Open() error {
	j.current, j.match = nil, 0
	if err := j.left.Open(); err != nil {
		return err
	}
	leftSchema := j.left.Schema()
	j.arena = rowArena{width: leftSchema.Len(), recycle: true}
	var buildBytes int64
	for {
		row, ok, err := j.left.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.arena.keep(row)
		j.ctx.count(1)
		buildBytes += int64(tuple.EncodedSize(leftSchema, row))
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
	if err := j.table.build(rows, j.leftOrd); err != nil {
		return err
	}
	j.gate = KeyGate{table: &j.table, ord: j.rightOrd}
	g, ok := j.right.(Gated)
	j.gated = ok && g.Gate(&j.gate)
	return j.right.Open()
}

// Next emits the next (left ++ right) match.
func (j *HashJoin) Next() (tuple.Row, bool, error) {
	if j.emptyBuild {
		return nil, false, nil
	}
	for {
		for j.match != 0 {
			build := j.table.rows[j.match-1]
			j.match = j.table.next[j.match-1]
			j.ctx.count(1)
			if len(j.residual) != 0 {
				// A candidate also counts as the input of the ColFilter that
				// used to stand over the join, whether or not it passes.
				j.ctx.count(1)
				if !j.residualHolds(build) {
					continue
				}
			}
			n := copy(j.out, build)
			copy(j.out[n:], j.current)
			return j.out, true, nil
		}
		row, ok, err := j.right.Next()
		j.probed(row, ok && err == nil)
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
// records a gated child skipped, and row if ok — and, when the join spilled,
// charges the pages their bytes fill. It runs on every pull, the last one too,
// so the skipped records at the end of the stream are charged as well.
func (j *HashJoin) probed(row tuple.Row, ok bool) {
	n, bytes := j.gate.skipped, j.gate.skippedBytes
	j.gate.skipped, j.gate.skippedBytes = 0, 0
	if ok {
		n++
		if j.spilled {
			bytes += int64(tuple.EncodedSize(j.right.Schema(), row))
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
		if !p.Op.Eval(build[p.LeftOrd], j.current[p.RightOrd]) {
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

// joinTable is the hash join's table: open addressing over the build rows,
// with the rows of one key chained in build order. Match order within a key
// must be build order — answers are compared as multisets, but a materialized
// view stores rows as emitted and later page counts depend on that order.
//
// A key is a 64-bit image of the join value: tuple.KeyBits for int, date and
// float columns, where equal images mean equal values, and a hash for string
// columns, where the slot search also compares the strings. Everything is
// sized once, after the build side has been drained and its row count is
// known, from the slabs, and given back by release. Row references
// are 1 + the row's index, so that 0 means none.
type joinTable struct {
	rows  []tuple.Row // build rows in build order
	ord   int         // join column within a build row
	keys  []uint64    // keys[i] is the key image of rows[i]
	next  []int32     // next[i] refers to the following row with rows[i]'s key
	slots []int32     // slots[p] refers to the first row of the key hashed to p
	shift uint        // 64 − log2(len(slots))
}

func keyImage(v tuple.Value) uint64 {
	if v.Kind != tuple.KindString {
		return tuple.KeyBits(v)
	}
	h := uint64(14695981039346656037) // FNV-1a
	s := v.Str()
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// build indexes rows on column ord.
func (t *joinTable) build(rows []tuple.Row, ord int) error {
	if len(rows) > math.MaxInt32 {
		return fmt.Errorf("exec: hash join build side of %d rows exceeds the table's 2^31−1", len(rows))
	}
	size := 2 * len(rows) // load factor ≤ 1/2
	logSize := uint(bits.Len(uint(size - 1)))
	t.rows, t.ord = rows, ord
	t.keys = slab.Uint64s.Take(len(rows))
	t.next = int32Slabs.Take(len(rows))
	t.slots = int32Slabs.Take(1 << logSize)
	clear(t.slots) // an empty slot is 0; keys and next are written below
	t.shift = 64 - logSize
	// Inserting last row first and pushing each row at the head of its chain
	// leaves every chain in build order.
	for i := len(rows) - 1; i >= 0; i-- {
		v := rows[i][ord]
		k := keyImage(v)
		t.keys[i] = k
		p := t.slot(k, v)
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
		if t.keys[head-1] == k && (v.Kind != tuple.KindString || t.rows[head-1][t.ord].Str() == v.Str()) {
			return p
		}
	}
}

// lookup returns a reference to the first build row matching v.
func (t *joinTable) lookup(v tuple.Value) int32 {
	return t.slots[t.slot(keyImage(v), v)]
}

// IndexNLJoin drives the outer child and, for each outer row, probes an index
// on the inner base table — the access path whose absence on freshly
// materialized relations is the paper's main source of speculation penalties
// (Section 6.1). The outer row is borrowed while its matches are emitted; the
// matching inner rows are decoded under their page pins into one reused
// buffer, and every match is assembled in the one join-owned output row.
type IndexNLJoin struct {
	ctx      *Context
	outer    Iterator
	outerOrd int
	inner    *catalog.Table
	index    *catalog.Index
	// innerPreds filter inner rows (selections on the inner relation),
	// compiled against the inner's qualified schema.
	innerPreds  []Pred
	innerSchema *tuple.Schema
	schema      *tuple.Schema

	current tuple.Row     // the borrowed outer row
	pending []tuple.Value // its matching inner rows, back to back
	pos     int           // offset in pending of the next one to emit
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
	innerSchema := qualify(inner.Schema, qualifier)
	schema := outer.Schema().Concat(innerSchema)
	j := &IndexNLJoin{
		ctx:         ctx,
		outer:       outer,
		outerOrd:    oo,
		inner:       inner,
		index:       index,
		innerPreds:  innerPreds,
		innerSchema: innerSchema,
		schema:      schema,
		out:         make(tuple.Row, schema.Len()),
	}
	width := inner.Schema.Len()
	j.decode = func(rec []byte) error {
		// Decode at the tail of pending; a row the inner predicates reject
		// is cut off again.
		n := len(j.pending)
		j.pending = append(j.pending, make([]tuple.Value, width)...)
		inRow := tuple.Row(j.pending[n:])
		if _, err := tuple.DecodeRowInto(inRow, rec, inner.Schema); err != nil {
			return err
		}
		j.ctx.count(1)
		for _, p := range j.innerPreds {
			if !p.Eval(inRow) {
				j.pending = j.pending[:n]
				break
			}
		}
		return nil
	}
	j.visit = func(_ []byte, rid storage.RID) error { return inner.Heap.View(ctx.Pool, rid, j.decode) }
	return j, nil
}

// Open opens the outer child.
func (j *IndexNLJoin) Open() error { return j.outer.Open() }

// Next emits the next (outer ++ inner) match.
func (j *IndexNLJoin) Next() (tuple.Row, bool, error) {
	for {
		if j.pos < len(j.pending) {
			n := copy(j.out, j.current)
			j.pos += copy(j.out[n:], j.pending[j.pos:]) // fills out: one inner row
			j.ctx.count(1)
			return j.out, true, nil
		}
		row, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.ctx.count(1)
		j.keyBuf = tuple.EncodeKey(j.keyBuf[:0], row[j.outerOrd])
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

// CrossJoin is a nested-loop cross product with the inner side materialized
// at Open. The planner only emits it for queries whose graph is disconnected
// (transient states while a user assembles a query).
type CrossJoin struct {
	ctx          *Context
	outer, inner Iterator
	schema       *tuple.Schema

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
		ctx:    ctx,
		outer:  outer,
		inner:  inner,
		schema: schema,
		out:    make(tuple.Row, schema.Len()),
	}
}

// Open materializes the inner side.
func (j *CrossJoin) Open() error {
	if err := j.outer.Open(); err != nil {
		return err
	}
	j.kept = rowArena{width: j.inner.Schema().Len(), recycle: true}
	if err := j.kept.drain(j.inner); err != nil {
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
			n := copy(j.out, j.current)
			copy(j.out[n:], j.innerRows[j.pos])
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
