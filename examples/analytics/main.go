// Analytics runs a multi-query oblivious analytics session through the
// cost-based query planner — logical queries with selection pushdown,
// cost-based operator choice, plan-cache reuse across queries, and a
// grouping aggregation over the decoded output in client memory:
//
//	Q1: SELECT s_nationkey, COUNT(*)
//	    FROM   supplier, customer
//	    WHERE  s_nationkey = c_nationkey AND s_acctbal >= 3000
//	    GROUP  BY s_nationkey
//
//	Q2: SELECT *
//	    FROM   supplier, nation
//	    WHERE  s_nationkey = n_nationkey AND s_acctbal >= 3000
//
// The planner explains each query before running it (the enumerated
// candidates with predicted block-access counts, and which inputs come
// from the plan cache). Planning prepares the pushed-down inputs, so the
// EXPLAIN's work is not wasted: Q1's Run reuses what its Explain built,
// and Q2 — a different join — reuses the same filtered supplier input,
// moving zero prepare blocks.
package main

import (
	"fmt"
	"log"
	"slices"

	"oblivjoin"
	"oblivjoin/internal/tpch"
)

func main() {
	data := tpch.Generate(tpch.Config{Suppliers: 15, Seed: 3})
	db := oblivjoin.NewDatabase(oblivjoin.Config{BlockPayload: 1024})
	if err := db.AddTable(data.Supplier, "s_nationkey"); err != nil {
		log.Fatal(err)
	}
	if err := db.AddTable(data.Customer, "c_nationkey"); err != nil {
		log.Fatal(err)
	}
	if err := db.AddTable(data.Nation, "n_nationkey"); err != nil {
		log.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		log.Fatal(err)
	}

	goodStanding := oblivjoin.Filter{Table: "supplier", Preds: []oblivjoin.SelectPred{
		{Column: "s_acctbal", Op: oblivjoin.GE, Value: 300_000},
	}}

	// Q1: filtered suppliers joined with customers. Explain first — the
	// plan is a function of public metadata only, so printing it leaks
	// nothing beyond what the execution trace already reveals.
	q1 := oblivjoin.Query{
		Tables:  []string{"supplier", "customer"},
		Preds:   []oblivjoin.Pred{{Left: "supplier", LeftAttr: "s_nationkey", Right: "customer", RightAttr: "c_nationkey"}},
		Filters: []oblivjoin.Filter{goodStanding},
	}
	plan, err := db.Explain(q1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("-- EXPLAIN Q1\n", plan)
	out1, err := db.Run(q1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- Q1: %d records (prepare moved %d blocks, %d cache hits)\n\n",
		len(out1.Tuples), out1.PrepareStats.BlocksMoved(), out1.CacheHits)

	// COUNT(*) GROUP BY nationkey: Run has decoded Q1's rows into client
	// memory, so the client counts the groups there, and the server sees
	// nothing more.
	col := out1.Result.Schema.MustCol("supplier.s_nationkey")
	counts := map[int64]int{}
	var keys []int64
	for _, tu := range out1.Tuples {
		k := tu.Values[col]
		if counts[k] == 0 {
			keys = append(keys, k)
		}
		counts[k]++
	}
	slices.Sort(keys)
	fmt.Printf("γ COUNT(*) BY nationkey: %d groups\n", len(keys))
	for i, k := range keys {
		if i >= 5 {
			fmt.Printf("  ... %d more groups\n", len(keys)-5)
			break
		}
		fmt.Printf("  nation %2d: %d supplier-customer pairs\n", k, counts[k])
	}
	fmt.Println()

	// Q2: a different join over the same filtered suppliers. The plan
	// cache recognizes the prepared input by signature — no pushdown or
	// upload traffic the second time.
	q2 := oblivjoin.Query{
		Tables:  []string{"supplier", "nation"},
		Preds:   []oblivjoin.Pred{{Left: "supplier", LeftAttr: "s_nationkey", Right: "nation", RightAttr: "n_nationkey"}},
		Filters: []oblivjoin.Filter{goodStanding},
	}
	plan, err = db.Explain(q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("-- EXPLAIN Q2\n", plan)
	out2, err := db.Run(q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- Q2: %d records (prepare moved %d blocks, %d cache hits)\n\n",
		len(out2.Tuples), out2.PrepareStats.BlocksMoved(), out2.CacheHits)

	stats := db.PlanCacheStats()
	fmt.Printf("plan cache: %d entries, %d hits, %d misses\n", stats.Entries, stats.Hits, stats.Misses)
}
