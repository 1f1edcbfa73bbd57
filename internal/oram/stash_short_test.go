//go:build !exhaustive

package oram

// stashTailAccesses is how many random accesses TestStashTail makes on each
// tree; -tags exhaustive makes 10⁶.
const stashTailAccesses = 10_000
