package catalog

import (
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// Analyze recomputes count/distinct/min/max statistics for every column from
// one scan of the table, through the builders every preparation shares
// (Feed): each numeric column's statistics come off one sort of its key
// images, each string column's from a stats.Collector, so the scan holds no
// decoded row and no column. Existing histograms are preserved (they are
// created by a separate, costed manipulation). The scan goes through the
// buffer pool, so analyzing charges real simulated I/O like any other
// statement.
func Analyze(t *Table) error {
	f, err := ScanFeed(t, tuple.AllCols, 0)
	if err != nil {
		return err
	}
	defer f.Release()
	f.Analyze()
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
