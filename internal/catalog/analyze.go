package catalog

import (
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// Analyze scans a table and recomputes count/distinct/min/max statistics for
// every column, feeding each decoded value to its column's stats.Collector —
// the one the materialization path streams into — so the scan holds a row at a
// time and never a column. Existing histograms are preserved (they are created
// by a separate, costed manipulation). The scan goes through the buffer pool,
// so analyzing charges real simulated I/O like any other statement.
func Analyze(t *Table) error {
	cols := stats.ColumnCollectors(t.Schema)
	defer func() {
		for i := range cols {
			cols[i].Release()
		}
	}()
	row := make(tuple.Row, t.Schema.Len())
	err := t.Heap.Scan(func(_ storage.RID, rec []byte) error {
		if _, err := tuple.DecodeRowInto(row, rec, t.Schema); err != nil {
			return err
		}
		for i, v := range row {
			cols[i].Add(v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, c := range t.Schema.Columns {
		cs := cols[i].Stats()
		if old := t.ColumnStats(c.Name); old != nil {
			cs.SetHist(old.Hist())
		}
		t.SetColumnStats(c.Name, cs)
	}
	return nil
}

// ColumnValues returns every value of one column, in heap order, in a slice
// sized once from the table's row count. It is the input to histogram
// creation.
func ColumnValues(t *Table, col string) ([]tuple.Value, error) {
	ord := t.Schema.MustOrdinal(col)
	out := make([]tuple.Value, 0, t.RowCount())
	row := make(tuple.Row, t.Schema.Len())
	err := t.Heap.Scan(func(_ storage.RID, rec []byte) error {
		if _, err := tuple.DecodeLive(row, rec, t.Schema, tuple.ColsOf(ord), nil); err != nil {
			return err
		}
		out = append(out, row[ord])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
