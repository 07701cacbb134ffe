// Package tpch generates the paper's experimental dataset: a subset of the
// TPC-H schema — part, supplier, partsupp, customer, orders, lineitem —
// "mutually connected through various foreign keys … populated with data of
// varying size … and of high skew in fields that were likely to appear in
// selections" (Section 4.2). It also performs the paper's database
// preparation: indexes and histograms on all skewed fields and foreign-key
// fields.
//
// Data is generated at 1/20 linear scale relative to the paper's 100 MB /
// 500 MB / 1 GB datasets, with the buffer pool scaled by the same factor
// (see DESIGN.md §1), and is fully deterministic given a seed.
package tpch

import (
	"fmt"
	"math"

	"specdb/internal/catalog"
	"specdb/internal/engine"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// Scale sizes a dataset. Row counts follow TPC-H proportions.
type Scale struct {
	Name     string
	Supplier int
	Part     int
	PartSupp int
	Customer int
	Orders   int
	LineItem int
}

// NewScale derives a Scale from a TPC-H scale factor (SF 1 ≈ the paper's
// 1 GB dataset before our 1/20 reduction).
func NewScale(name string, sf float64) Scale {
	n := func(base int) int {
		v := int(float64(base) * sf)
		if v < 4 {
			v = 4
		}
		return v
	}
	return Scale{
		Name:     name,
		Supplier: n(10_000),
		Part:     n(200_000),
		PartSupp: n(800_000),
		Customer: n(150_000),
		Orders:   n(1_500_000),
		LineItem: n(6_000_000),
	}
}

// The paper's three dataset sizes at the repository's 1/20 linear scale.
var (
	Scale100MB = NewScale("100MB", 0.1/20)
	Scale500MB = NewScale("500MB", 0.5/20)
	Scale1GB   = NewScale("1GB", 1.0/20)
)

// ScaleByName resolves one of the paper's dataset names.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "100MB":
		return Scale100MB, nil
	case "500MB":
		return Scale500MB, nil
	case "1GB":
		return Scale1GB, nil
	default:
		return Scale{}, fmt.Errorf("tpch: unknown scale %q (want 100MB, 500MB, or 1GB)", name)
	}
}

// TotalRows reports the dataset cardinality.
func (s Scale) TotalRows() int {
	return s.Supplier + s.Part + s.PartSupp + s.Customer + s.Orders + s.LineItem
}

var nations = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "CHINA", "EGYPT", "ETHIOPIA",
	"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
	"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "ROMANIA", "RUSSIA",
	"SAUDI ARABIA", "UNITED KINGDOM", "UNITED STATES", "VIETNAM",
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

var brands = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#22", "Brand#31",
	"Brand#32", "Brand#41", "Brand#42", "Brand#51", "Brand#52"}

// Schemas returns the six table schemas, keyed by table name.
func Schemas() map[string]*tuple.Schema {
	return map[string]*tuple.Schema{
		"supplier": tuple.NewSchema(
			tuple.Column{Name: "s_suppkey", Kind: tuple.KindInt},
			tuple.Column{Name: "s_name", Kind: tuple.KindString},
			tuple.Column{Name: "s_nation", Kind: tuple.KindString},
			tuple.Column{Name: "s_acctbal", Kind: tuple.KindFloat},
		),
		"part": tuple.NewSchema(
			tuple.Column{Name: "p_partkey", Kind: tuple.KindInt},
			tuple.Column{Name: "p_name", Kind: tuple.KindString},
			tuple.Column{Name: "p_brand", Kind: tuple.KindString},
			tuple.Column{Name: "p_size", Kind: tuple.KindInt},
			tuple.Column{Name: "p_retailprice", Kind: tuple.KindFloat},
		),
		"partsupp": tuple.NewSchema(
			tuple.Column{Name: "ps_partkey", Kind: tuple.KindInt},
			tuple.Column{Name: "ps_suppkey", Kind: tuple.KindInt},
			tuple.Column{Name: "ps_availqty", Kind: tuple.KindInt},
			tuple.Column{Name: "ps_supplycost", Kind: tuple.KindFloat},
		),
		"customer": tuple.NewSchema(
			tuple.Column{Name: "c_custkey", Kind: tuple.KindInt},
			tuple.Column{Name: "c_name", Kind: tuple.KindString},
			tuple.Column{Name: "c_nation", Kind: tuple.KindString},
			tuple.Column{Name: "c_mktsegment", Kind: tuple.KindString},
			tuple.Column{Name: "c_acctbal", Kind: tuple.KindFloat},
		),
		"orders": tuple.NewSchema(
			tuple.Column{Name: "o_orderkey", Kind: tuple.KindInt},
			tuple.Column{Name: "o_custkey", Kind: tuple.KindInt},
			tuple.Column{Name: "o_totalprice", Kind: tuple.KindFloat},
			tuple.Column{Name: "o_orderdate", Kind: tuple.KindDate},
			tuple.Column{Name: "o_orderpriority", Kind: tuple.KindInt},
		),
		"lineitem": tuple.NewSchema(
			tuple.Column{Name: "l_orderkey", Kind: tuple.KindInt},
			tuple.Column{Name: "l_partkey", Kind: tuple.KindInt},
			tuple.Column{Name: "l_suppkey", Kind: tuple.KindInt},
			tuple.Column{Name: "l_quantity", Kind: tuple.KindInt},
			tuple.Column{Name: "l_extendedprice", Kind: tuple.KindFloat},
			tuple.Column{Name: "l_discount", Kind: tuple.KindFloat},
			tuple.Column{Name: "l_shipdate", Kind: tuple.KindDate},
		),
	}
}

// JoinEdges returns the foreign-key join edges of the schema — the join
// vocabulary for user queries.
func JoinEdges() []qgraph.Join {
	return []qgraph.Join{
		qgraph.NewJoin("customer", "c_custkey", "orders", "o_custkey"),
		qgraph.NewJoin("orders", "o_orderkey", "lineitem", "l_orderkey"),
		qgraph.NewJoin("part", "p_partkey", "lineitem", "l_partkey"),
		qgraph.NewJoin("supplier", "s_suppkey", "lineitem", "l_suppkey"),
		qgraph.NewJoin("part", "p_partkey", "partsupp", "ps_partkey"),
		qgraph.NewJoin("supplier", "s_suppkey", "partsupp", "ps_suppkey"),
	}
}

// fkColumns lists the foreign-key columns indexed at load time.
var fkColumns = [][2]string{
	{"orders", "o_custkey"},
	{"lineitem", "l_orderkey"},
	{"lineitem", "l_partkey"},
	{"lineitem", "l_suppkey"},
	{"partsupp", "ps_partkey"},
	{"partsupp", "ps_suppkey"},
	{"customer", "c_custkey"},
	{"orders", "o_orderkey"},
	{"part", "p_partkey"},
	{"supplier", "s_suppkey"},
}

// skewedColumns lists the skewed numeric fields that receive indexes and
// histograms (the paper prepares the base database fully).
var skewedColumns = [][2]string{
	{"part", "p_size"},
	{"part", "p_retailprice"},
	{"supplier", "s_acctbal"},
	{"partsupp", "ps_availqty"},
	{"partsupp", "ps_supplycost"},
	{"customer", "c_acctbal"},
	{"orders", "o_totalprice"},
	{"orders", "o_orderdate"},
	{"orders", "o_orderpriority"},
	{"lineitem", "l_quantity"},
	{"lineitem", "l_extendedprice"},
	{"lineitem", "l_discount"},
	{"lineitem", "l_shipdate"},
}

// SelectionColumn describes a column users place selection predicates on,
// with its value range for constant generation.
type SelectionColumn struct {
	Table, Column string
	Kind          tuple.Kind
	Min, Max      float64 // numeric range (dates as day numbers)
	// Skew is the approximate power-law exponent of the generated data on
	// this column (1 = uniform); see trace.SelectionTemplate.Skew.
	Skew float64
}

// SelectionColumns returns the selection vocabulary for the synthetic user
// model, matching the skewed numeric fields.
func SelectionColumns() []SelectionColumn {
	return []SelectionColumn{
		{"part", "p_size", tuple.KindInt, 1, 50, 3},
		{"part", "p_retailprice", tuple.KindFloat, 900, 2100, 1.5},
		{"supplier", "s_acctbal", tuple.KindFloat, -900, 10000, 2},
		{"partsupp", "ps_availqty", tuple.KindInt, 1, 10000, 1},
		{"partsupp", "ps_supplycost", tuple.KindFloat, 1, 1000, 2},
		{"customer", "c_acctbal", tuple.KindFloat, -900, 10000, 2},
		{"orders", "o_totalprice", tuple.KindFloat, 1000, 400000, 2.5},
		{"orders", "o_orderdate", tuple.KindDate, 8035, 10590, 1}, // 1992-01-01..1998-12-31
		{"orders", "o_orderpriority", tuple.KindInt, 1, 5, 3},
		{"lineitem", "l_quantity", tuple.KindInt, 1, 50, 3},
		{"lineitem", "l_extendedprice", tuple.KindFloat, 900, 105000, 2},
		{"lineitem", "l_discount", tuple.KindFloat, 0, 0.1, 1},
		{"lineitem", "l_shipdate", tuple.KindDate, 8035, 10712, 1},
	}
}

// Load creates, populates, analyzes, indexes, and histograms the dataset in
// the engine, deterministically from seed.
//
// Each table's load feeds its preparation (catalog.Feed): the statistics,
// indexes and histograms are built from what the load gathered as it stored
// the rows, one sort per numeric column, and no heap page is read back. The
// statements and their order are the scan-per-build set-up's, so every page
// lands where it did. The feeds hold about 16 bytes per numeric value until
// the last histogram is built.
func Load(e *engine.Engine, scale Scale, seed uint64) error {
	r := sim.NewRand(seed)
	schemas := Schemas()
	loads := []struct {
		table string
		rows  int
		load  func(*engine.Engine, Scale, *sim.Rand, *catalog.Feed) error
	}{
		{"supplier", scale.Supplier, loadSupplier},
		{"part", scale.Part, loadPart},
		{"partsupp", scale.PartSupp, loadPartSupp},
		{"customer", scale.Customer, loadCustomer},
		{"orders", scale.Orders, loadOrders},
		{"lineitem", scale.LineItem, loadLineItem},
	}
	feeds := make(map[string]*catalog.Feed, len(loads))
	defer func() {
		for _, f := range feeds {
			f.Release()
		}
	}()
	for _, l := range loads {
		t, err := e.CreateTable(l.table, schemas[l.table])
		if err != nil {
			return err
		}
		feeds[l.table] = catalog.NewFeed(t, l.rows)
	}
	for _, l := range loads {
		if err := l.load(e, scale, r, feeds[l.table]); err != nil {
			return err
		}
	}
	for _, l := range loads {
		if err := e.Analyze(l.table, feeds[l.table]); err != nil {
			return err
		}
	}
	// Full preparation: indexes on FK and skewed fields, histograms on
	// skewed fields (Section 4.2).
	done := map[string]bool{}
	for _, tc := range append(append([][2]string{}, fkColumns...), skewedColumns...) {
		key := tc[0] + "." + tc[1]
		if done[key] {
			continue
		}
		done[key] = true
		if _, err := e.CreateIndex(tc[0], tc[1], feeds[tc[0]]); err != nil {
			return fmt.Errorf("tpch: index %s: %w", key, err)
		}
	}
	for _, tc := range skewedColumns {
		if _, err := e.CreateHistogram(tc[0], tc[1], feeds[tc[0]]); err != nil {
			return fmt.Errorf("tpch: histogram %s.%s: %w", tc[0], tc[1], err)
		}
	}
	return e.ColdStart() // experiments start with a cold buffer pool
}

func loadSupplier(e *engine.Engine, s Scale, r *sim.Rand, fed *catalog.Feed) error {
	zNation := sim.NewZipf(r, len(nations), 1.1)
	return e.InsertGenerated("supplier", s.Supplier, fed, func(i int, row tuple.Row) {
		row[0] = tuple.NewInt(int64(i + 1))
		row[1] = tuple.NewString(fmt.Sprintf("Supplier#%05d", i+1))
		row[2] = tuple.NewString(nations[zNation.Next()])
		row[3] = tuple.NewFloat(skewedFloat(r, -900, 10000, 2))
	})
}

func loadPart(e *engine.Engine, s Scale, r *sim.Rand, fed *catalog.Feed) error {
	zSize := sim.NewZipf(r, 50, 1.0)
	zBrand := sim.NewZipf(r, len(brands), 0.9)
	return e.InsertGenerated("part", s.Part, fed, func(i int, row tuple.Row) {
		row[0] = tuple.NewInt(int64(i + 1))
		row[1] = tuple.NewString(fmt.Sprintf("Part#%06d", i+1))
		row[2] = tuple.NewString(brands[zBrand.Next()])
		row[3] = tuple.NewInt(int64(zSize.Next() + 1))
		row[4] = tuple.NewFloat(skewedFloat(r, 900, 2100, 1.5))
	})
}

func loadPartSupp(e *engine.Engine, s Scale, r *sim.Rand, fed *catalog.Feed) error {
	return e.InsertGenerated("partsupp", s.PartSupp, fed, func(_ int, row tuple.Row) {
		row[0] = tuple.NewInt(r.Int63n(int64(s.Part)) + 1)
		row[1] = tuple.NewInt(r.Int63n(int64(s.Supplier)) + 1)
		row[2] = tuple.NewInt(r.Int63n(10000) + 1)
		row[3] = tuple.NewFloat(skewedFloat(r, 1, 1000, 2))
	})
}

func loadCustomer(e *engine.Engine, s Scale, r *sim.Rand, fed *catalog.Feed) error {
	zNation := sim.NewZipf(r, len(nations), 1.1)
	zSeg := sim.NewZipf(r, len(segments), 0.8)
	return e.InsertGenerated("customer", s.Customer, fed, func(i int, row tuple.Row) {
		row[0] = tuple.NewInt(int64(i + 1))
		row[1] = tuple.NewString(fmt.Sprintf("Customer#%06d", i+1))
		row[2] = tuple.NewString(nations[zNation.Next()])
		row[3] = tuple.NewString(segments[zSeg.Next()])
		row[4] = tuple.NewFloat(skewedFloat(r, -900, 10000, 2))
	})
}

func loadOrders(e *engine.Engine, s Scale, r *sim.Rand, fed *catalog.Feed) error {
	zPrio := sim.NewZipf(r, 5, 1.3)
	return e.InsertGenerated("orders", s.Orders, fed, func(i int, row tuple.Row) {
		row[0] = tuple.NewInt(int64(i + 1))
		row[1] = tuple.NewInt(r.Int63n(int64(s.Customer)) + 1)
		row[2] = tuple.NewFloat(skewedFloat(r, 1000, 400000, 2.5))
		row[3] = tuple.NewDate(8035 + r.Int63n(2556)) // 1992..1998
		row[4] = tuple.NewInt(int64(zPrio.Next() + 1))
	})
}

func loadLineItem(e *engine.Engine, s Scale, r *sim.Rand, fed *catalog.Feed) error {
	zQty := sim.NewZipf(r, 50, 1.0)
	return e.InsertGenerated("lineitem", s.LineItem, fed, func(_ int, row tuple.Row) {
		qty := int64(zQty.Next() + 1)
		price := skewedFloat(r, 900, 2100, 1.5) * float64(qty)
		row[0] = tuple.NewInt(r.Int63n(int64(s.Orders)) + 1)
		row[1] = tuple.NewInt(r.Int63n(int64(s.Part)) + 1)
		row[2] = tuple.NewInt(r.Int63n(int64(s.Supplier)) + 1)
		row[3] = tuple.NewInt(qty)
		row[4] = tuple.NewFloat(price)
		row[5] = tuple.NewFloat(float64(r.Intn(11)) / 100)
		row[6] = tuple.NewDate(8035 + r.Int63n(2678))
	})
}

// skewedFloat draws a right-skewed value in [min, max]: mass concentrates
// near min, with a long tail toward max (value = min + range·u^k for
// uniform u and exponent k ≥ 1).
func skewedFloat(r *sim.Rand, min, max, k float64) float64 {
	return min + (max-min)*math.Pow(r.Float64(), k)
}
