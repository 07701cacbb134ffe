// Exploration: a full exploratory-analysis session (the paper's Section 2
// environment). The analyst hunts for low-priced, high-volume order lines —
// evolving one query into the next, exactly the inter-query locality the
// speculation framework exploits: materializations persist while the parts
// they cover stay on the canvas, so later queries keep getting faster.
//
//	go run ./examples/exploration
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"specdb"
)

func main() {
	db := specdb.Open(specdb.Options{})
	fmt.Println("loading the 100MB TPC-H subset...")
	if err := db.LoadTPCH("100MB", 42); err != nil {
		log.Fatal(err)
	}
	s := db.NewSession(specdb.SessionConfig{})
	defer s.Close()

	step := 0
	edit := func(what string, fn func() error) {
		if err := fn(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [edit] %s\n", what)
	}
	think := func(d time.Duration) {
		fmt.Printf("  [think %v]\n", d)
		s.Think(d)
	}
	govern := func(desc string) {
		step++
		res, err := s.Go()
		if err != nil {
			log.Fatal(err)
		}
		rewritten := ""
		if strings.Contains(res.Plan, "spec_") {
			rewritten = "  ← rewritten with a speculative materialization"
		}
		fmt.Printf("Q%d %-52s %8v  %6d rows%s\n", step, desc, res.Duration, res.RowCount, rewritten)
	}

	fmt.Println("\n--- task: find cheap high-volume lines and who supplies them ---")

	// Q1: start broad — high-quantity lines.
	edit("quantity ≥ 40", func() error { return s.AddSelection("lineitem", "l_quantity", ">=", 40) })
	think(20 * time.Second)
	govern("high-quantity lineitems")

	// Q2: join in the orders; the quantity predicate persists, so its
	// materialization is reused.
	edit("join orders", func() error { return s.AddJoin("orders", "o_orderkey", "lineitem", "l_orderkey") })
	think(15 * time.Second)
	govern("… with their orders")

	// Q3: narrow to cheap orders.
	edit("total price < 20000", func() error {
		return s.AddSelection("orders", "o_totalprice", "<", 20000)
	})
	think(25 * time.Second)
	govern("… cheap orders only")

	// Q4: who supplies them? The canvas keeps everything else.
	edit("join supplier", func() error { return s.AddJoin("supplier", "s_suppkey", "lineitem", "l_suppkey") })
	edit("project supplier name/balance", func() error {
		return s.SetProjections("supplier.s_name", "supplier.s_acctbal")
	})
	think(20 * time.Second)
	govern("… and their suppliers")

	// Q5: the user reconsiders — drops the price filter, tightens quantity.
	edit("remove price filter", func() error {
		return s.RemoveSelection("orders", "o_totalprice", "<", 20000)
	})
	edit("quantity ≥ 45", func() error { return s.AddSelection("lineitem", "l_quantity", ">=", 45) })
	edit("remove quantity ≥ 40", func() error {
		return s.RemoveSelection("lineitem", "l_quantity", ">=", 40)
	})
	think(30 * time.Second)
	govern("revised: very high volume, any price")

	st := s.Stats()
	fmt.Printf("\nsession speculation: issued %d, completed %d, canceled (invalidated %d / at GO %d), ran on across GO %d, GC'd %d\n",
		st.Issued, st.Completed, st.CanceledInvalidated, st.CanceledAtGo, st.ContinuedAtGo, st.GarbageCollected)
}
