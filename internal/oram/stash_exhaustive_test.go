//go:build exhaustive

package oram

// stashTailAccesses is TestStashTail's long form: 10⁶ random accesses on
// each tree.
const stashTailAccesses = 1_000_000
