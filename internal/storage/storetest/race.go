//go:build race

package storetest

// RaceEnabled reports whether the race detector is compiled in. Allocation
// guards (testing.AllocsPerRun) skip under it: the detector's shadow
// bookkeeping allocates on its own account.
const RaceEnabled = true
