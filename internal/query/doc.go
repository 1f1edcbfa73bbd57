// Package query is the planning layer above the oblivious operator
// library: a logical query description (Spec — tables, equi-/band-join
// predicates, per-column selections, projection), a cost-based planner
// that enumerates the candidate physical operators (sort-merge, index
// nested-loop, multiway), prices each with the paper's Theorem 1–4
// retrieval bounds expanded into per-store block-access counts, bytes and
// rounds, and ranks them by the paper's cost model (Cost.Time), selection
// pushdown that reads a filtered input's base table back with one oblivious
// scan and pads the matches under the configured padding policy, and a cache of filtered-and-indexed intermediates so a series of
// queries amortizes the dominant build cost (Shafieinejad et al.; see
// DESIGN.md §2.15).
//
// Everything the planner consumes is public metadata: row counts, block
// geometry, index inventories, and the fixed per-access costs of the ORAM
// instances (Catalog). Two databases with identical public geometry
// therefore produce byte-identical plans and — under a size-hiding padding
// mode — byte-identical access traces regardless of private contents,
// which the package's trace-identity test pins.
package query
