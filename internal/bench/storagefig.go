package bench

import (
	"math"

	"oblivjoin/internal/relation"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

// storageLineup is the 8 storage series of Figures 7–8: each layout, with
// and without cached index levels.
var storageLineup = lineup(func(m method) bool { return !m.merge })

// tpchIndexAttrs lists the attributes the paper's TPC-H queries probe, so
// the storage figures account for every index a deployment would build.
var tpchIndexAttrs = map[string][]string{
	"supplier": {"s_nationkey", "s_acctbal"},
	"customer": {"c_nationkey", "c_custkey"},
	"nation":   {"n_nationkey", "n_regionkey"},
	"orders":   {"o_custkey", "o_orderkey"},
	"lineitem": {"l_orderkey"},
	"part":     {"p_retailprice"},
	"region":   {"r_regionkey"},
}

var socialIndexAttrs = map[string][]string{
	"popular-user":  {"src", "dst"},
	"normal-user":   {"src", "dst"},
	"inactive-user": {"src", "dst"},
}

// stored is the storage instance of a dataset: each method plots its
// family's cloud and client megabytes.
func (e *Env) stored(rels []*relation.Relation, attrs map[string][]string) instance {
	return instance{run: func(name string) (Point, error) {
		mt, err := methodFor(name, binary)
		if err != nil {
			return Point{}, err
		}
		cloud, client, err := e.storageOf(mt, rels, attrs)
		return Point{Series: mt.family(), A: float64(cloud) / 1e6, B: float64(client) / 1e6}, err
	}}
}

// storageOf measures one layout's cloud and client bytes for a dataset.
func (e *Env) storageOf(mt method, rels []*relation.Relation, attrs map[string][]string) (cloud, client int64, err error) {
	payload := e.payload()
	blockBytes := int64(payload + xcrypto.Overhead)
	switch mt.layout {
	case obliDB, odbj:
		// Encrypted data blocks only — no indexes, no ORAM tree.
		var blocks int64
		for _, r := range rels {
			per := payload / r.Schema.TupleSize()
			if per < 1 {
				per = 1
			}
			blocks += int64((r.Len() + per - 1) / per)
		}
		cloud = blocks * blockBytes
		if mt.layout == odbj {
			client = 2 * blockBytes // O(1): the paper's M = 2B working set
		} else {
			// ObliDB's trusted memory M = 50·log2(N) blocks.
			logN := math.Log2(float64(blocks) + 2)
			client = int64(50*logN) * blockBytes
		}
		return cloud, client, nil
	}
	tables, err := e.store(mt, nil, rels, attrs, false)
	if err != nil {
		return 0, 0, err
	}
	cloud, client = table.Footprint(tables...)
	return cloud, client, nil
}
