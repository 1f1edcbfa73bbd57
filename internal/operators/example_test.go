package operators_test

import (
	"fmt"

	"oblivjoin/internal/operators"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/xcrypto"
)

func sealed() *xcrypto.Sealer {
	s, err := xcrypto.NewSealer(make([]byte, xcrypto.KeySize), nil)
	if err != nil {
		panic(err)
	}
	return s
}

func ExampleSelectPadded() {
	rel := &relation.Relation{Schema: relation.Schema{Table: "emp", Columns: []string{"id", "dept"}}}
	for i := int64(0); i < 8; i++ {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{i, i % 3}})
	}
	// Pad the declared size to the next multiple of 4.
	padTo := func(real int) int { return (real + 3) / 4 * 4 }
	res, err := operators.SelectPadded(rel,
		[]operators.Pred{{Column: "dept", Op: operators.EQ, Value: 1}},
		padTo, operators.Options{BlockSize: 512, Sealer: sealed()})
	if err != nil {
		panic(err)
	}
	fmt.Println("matching rows:", res.RealCount, "declared:", res.PaddedCount)
	// Output: matching rows: 3 declared: 4
}
