package obliv

import "fmt"

func errNotPow2(n int) error {
	return fmt.Errorf("obliv: bitonic network size %d is not a power of two", n)
}

// Network invokes exchange(i, j, ascending) for every compare-exchange of a
// bitonic sorting network over n elements, in a fixed order that depends
// only on n. n must be a power of two. exchange must place the smaller
// element at i when ascending and at j otherwise; because the (i, j)
// sequence is data-independent, any implementation of exchange with a
// data-independent access pattern yields a fully oblivious sort.
//
// Batcher's bitonic network performs O(n log² n) exchanges, the standard
// choice of the oblivious-query literature for its small constants
// (Section 4.1 of the paper).
func Network(n int, exchange func(i, j int, ascending bool) error) error {
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return errNotPow2(n)
	}
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			for i := 0; i < n; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				asc := i&k == 0
				if err := exchange(i, l, asc); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NetworkSize returns the number of compare-exchanges Network(n, ...)
// performs, a convenience for cost accounting. n must be a power of two.
func NetworkSize(n int) int {
	if n <= 1 {
		return 0
	}
	total := 0
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			total += n / 2
		}
	}
	return total
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SortSlice sorts items in place with a bitonic network, physically padding
// to a power of two with +infinity sentinels (bitonic networks require real
// exchanges on padding elements; virtual padding is not sound). The
// comparison sequence depends only on len(items), so the sort is oblivious
// when items live in observable memory.
func SortSlice(items [][]byte, less func(a, b []byte) bool) error {
	n := len(items)
	p := NextPow2(n)
	work := make([][]byte, p)
	copy(work, items) // indices >= n stay nil, treated as +infinity
	lessInf := func(a, b []byte) bool {
		switch {
		case b == nil:
			return a != nil // anything < +inf, +inf !< +inf
		case a == nil:
			return false
		default:
			return less(a, b)
		}
	}
	err := Network(p, func(i, j int, asc bool) error {
		a, b := work[i], work[j]
		swap := lessInf(b, a)
		if !asc {
			swap = lessInf(a, b)
		}
		if swap {
			work[i], work[j] = work[j], work[i]
		}
		return nil
	})
	if err != nil {
		return err
	}
	copy(items, work[:n])
	return nil
}
