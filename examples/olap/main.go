// OLAP: decision-support queries over a small star schema in the mmdb
// column store — the workload that motivates the paper (§1, §2).
//
// A sales fact table references a products dimension.  Selections and range
// predicates run through a CSS-tree-indexed sorted RID list; the join is the
// indexed nested-loop join the paper highlights as the main-memory join of
// choice (§2.2); a group-by accumulates into the slots of the grouped
// column's domain (distinct values stored once, sorted, §2.1).
//
// Run: go run ./examples/olap
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cssidx"
	"cssidx/internal/mmdb"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Dimension: 1000 products with a price each.
	const nProducts = 1000
	productID := make([]uint32, nProducts)
	price := make([]uint32, nProducts)
	for i := range productID {
		productID[i] = uint32(1000 + i)
		price[i] = uint32(5 + rng.Intn(500))
	}
	products := mmdb.NewTable("products")
	must(products.AddColumn("id", productID))
	must(products.AddColumn("price", price))

	// Fact: 500k sales rows referencing products, with an amount.
	const nSales = 500_000
	soldProduct := make([]uint32, nSales)
	amount := make([]uint32, nSales)
	for i := range soldProduct {
		soldProduct[i] = productID[rng.Intn(nProducts)]
		amount[i] = uint32(1 + rng.Intn(20))
	}
	sales := mmdb.NewTable("sales")
	must(sales.AddColumn("product", soldProduct))
	must(sales.AddColumn("amount", amount))

	// Index the fact table's amount column with a level CSS-tree and the
	// dimension key with another.
	amountIx, err := sales.BuildIndex("amount", cssidx.KindLevelCSS, cssidx.Options{})
	must(err)
	idIx, err := products.BuildIndex("id", cssidx.KindLevelCSS, cssidx.Options{})
	must(err)

	// Q1 — point selection: sales with amount = 7.
	q1 := amountIx.SelectEqual(7)
	fmt.Printf("Q1: sales with amount = 7: %d rows\n", len(q1))

	// Q2 — range selection: sales with 15 ≤ amount ≤ 18 (ordered access via
	// the sorted RID list; hashing could not answer this, §3.5).
	q2, err := amountIx.SelectRange(15, 18)
	must(err)
	fmt.Printf("Q2: sales with amount in [15,18]: %d rows\n", len(q2))

	// Q3 — indexed nested-loop join: total revenue = Σ amount × price over
	// sales ⋈ products.  Each fact row probes the dimension index once.
	amountCol, _ := sales.Column("amount")
	priceCol, _ := products.Column("price")
	var revenue uint64
	pairs, err := mmdb.JoinWith(sales, "product", idIx, mmdb.JoinOptions{}, func(saleRID, productRID uint32) {
		revenue += uint64(amountCol.Value(int(saleRID))) * uint64(priceCol.Value(int(productRID)))
	})
	must(err)
	fmt.Printf("Q3: join produced %d pairs; total revenue %d\n", pairs, revenue)
	if pairs != nSales {
		log.Fatalf("every sale references exactly one product; got %d pairs", pairs)
	}

	// Q4 — grouped aggregation: units sold per product.  The first group-by
	// on a column builds its domain (each distinct value once, sorted, its
	// rank the ID), and every row adds into its product's array slot — no
	// hashing.
	byProduct, err := mmdb.GroupAggregate(sales, "product", "amount", nil)
	must(err)
	top := byProduct[0]
	for _, g := range byProduct {
		if g.Sum > top.Sum {
			top = g
		}
	}
	fmt.Printf("Q4: units by product over a %d-value group-by domain; best seller %d: %d units in %d sales\n",
		len(byProduct), top.Value, top.Sum, top.Count)

	fmt.Printf("\nindex footprints: amount %d bytes, product id %d bytes (%d fact rows)\n",
		amountIx.SpaceBytes(), idIx.SpaceBytes(), sales.Rows())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
