//go:build !race

package storetest

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = false
