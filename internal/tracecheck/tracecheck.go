// Package tracecheck analyzes server-visible access traces for the
// empirical obliviousness checks of Definition 1: traces of two executions
// over databases with equal sizing information and equal input/output sizes
// must be equal in length and — because ORAM randomizes physical locations —
// identical in their *structural* sequence: which store was touched, read
// or write, how many bytes moved, and which accesses shared a network round.
// That structural sequence is exactly what the simulator of Theorem 5
// reproduces from public information.
package tracecheck

import (
	"fmt"
	"strings"

	"oblivjoin/internal/storage"
)

// Op is the structural view of one access: store, kind, and size, with the
// physical index deliberately dropped (ORAM randomizes it).
type Op struct {
	Store string
	Kind  storage.AccessKind
	Bytes int
}

// Structure projects a trace onto its structural sequence.
func Structure(trace []storage.Access) []Op {
	out := make([]Op, len(trace))
	for i, a := range trace {
		out[i] = Op{Store: a.Store, Kind: a.Kind, Bytes: a.Bytes}
	}
	return out
}

// Diff compares two traces structurally — round boundaries included: how
// accesses to different stores are grouped into rounds is server-visible
// timing — and returns a description of the first divergence, or "" when
// they are indistinguishable.
func Diff(a, b []storage.Access) string {
	if len(a) != len(b) {
		return fmt.Sprintf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Store != b[i].Store || a[i].Kind != b[i].Kind || a[i].Bytes != b[i].Bytes {
			return fmt.Sprintf("op %d differs: %s/%s/%dB vs %s/%s/%dB",
				i, a[i].Store, a[i].Kind, a[i].Bytes, b[i].Store, b[i].Kind, b[i].Bytes)
		}
		if a[i].Round != b[i].Round {
			return fmt.Sprintf("op %d (%s/%s) travels in round %d vs round %d",
				i, a[i].Store, a[i].Kind, a[i].Round, b[i].Round)
		}
	}
	return ""
}

// Summary aggregates a trace per store.
type Summary struct {
	Store  string
	Reads  int
	Writes int
	Bytes  int64
}

// Summarize groups a trace by store in first-appearance order.
func Summarize(trace []storage.Access) []Summary {
	order := []string{}
	agg := map[string]*Summary{}
	for _, a := range trace {
		s, ok := agg[a.Store]
		if !ok {
			s = &Summary{Store: a.Store}
			agg[a.Store] = s
			order = append(order, a.Store)
		}
		if a.Kind == storage.KindRead {
			s.Reads++
		} else {
			s.Writes++
		}
		s.Bytes += int64(a.Bytes)
	}
	out := make([]Summary, len(order))
	for i, name := range order {
		out[i] = *agg[name]
	}
	return out
}

// String renders a summary list compactly.
func String(sums []Summary) string {
	var b strings.Builder
	for i, s := range sums {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s[r%d w%d %dB]", s.Store, s.Reads, s.Writes, s.Bytes)
	}
	return b.String()
}

// Periodic verifies that a trace decomposes into repetitions of a fixed
// structural period after a prefix — the per-join-step uniformity the
// algorithms guarantee. It returns the period length found (0 < p <=
// maxPeriod) or 0 if none fits.
func Periodic(trace []storage.Access, skip, maxPeriod int) int {
	ops := Structure(trace)
	if skip >= len(ops) {
		return 0
	}
	body := ops[skip:]
	for p := 1; p <= maxPeriod && p <= len(body); p++ {
		if len(body)%p != 0 {
			continue
		}
		ok := true
		for i := p; i < len(body) && ok; i++ {
			if body[i] != body[i%p] {
				ok = false
			}
		}
		if ok {
			return p
		}
	}
	return 0
}
