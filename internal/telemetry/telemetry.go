// Package telemetry provides hierarchical, phase-attributed measurement
// for the oblivious join pipeline: span trees over query phases (join →
// load → merge → pad → filter → compact → decode), each span capturing wall
// time, a goroutine-safe storage.Meter delta (block reads/writes, bytes,
// network rounds), and public-size annotations.
//
// Leakage discipline (DESIGN.md §2.8): a span may record *only* quantities
// that are public under Definition 1 — input sizes, padded step counts,
// IOSize-derived values, and aggregate traffic counters.
// Key values, per-tuple outcomes, or any data-dependent quantity beyond
// the (already leaked) output size must never be attached to a span. The
// telemetry layer itself performs no server accesses: it only snapshots
// Meter counters, so an instrumented execution produces a server-visible
// trace identical to an uninstrumented one (asserted by tests with
// tracecheck.Diff).
//
// All Span methods are safe on a nil receiver and no-op there, so
// instrumented code paths cost a single pointer test when telemetry is
// disabled. Spans are safe for concurrent use: goroutines may attach
// children to, annotate, and end spans of one tree at once.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"oblivjoin/internal/storage"
)

// Attr is one public-size annotation on a span (e.g. n=4096, io_size=512).
type Attr struct {
	Key   string
	Value int64
}

// Span is one timed phase of a query. Build trees with Child/ChildMeter,
// close phases with End, and snapshot the whole tree with Export.
type Span struct {
	mu         sync.Mutex
	name       string
	meter      *storage.Meter
	flight     *Flight
	start      time.Time
	startStats storage.Stats
	dur        time.Duration
	stats      storage.Stats
	ended      bool
	attrs      []Attr
	children   []*Span
}

// Start opens a root span bound to m (which may be nil: a meterless span
// aggregates its children's stats on export — useful for roots that group
// runs accounting to per-run meters).
func Start(name string, m *storage.Meter) *Span {
	s := &Span{name: name, meter: m, start: time.Now()}
	if m != nil {
		s.startStats = m.Snapshot()
	}
	return s
}

// Name returns the span's phase name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child opens a sub-span inheriting the parent's meter.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildMeter(name, s.meter)
}

// ChildMeter opens a sub-span bound to an explicit meter — used when a
// parent aggregates executions that each account to their own Meter (the
// bench harness) or when a phase's traffic flows through a different
// meter than its parent's. The parent's flight (if any) propagates to the
// child, and the flight's current phase label advances to the child's
// name — that is the only hook distributed tracing needs in the engine:
// every operator already opens a phase span, so every outgoing request is
// stamped with the declared-public phase that caused it.
func (s *Span) ChildMeter(name string, m *storage.Meter) *Span {
	if s == nil {
		return nil
	}
	c := Start(name, m)
	s.mu.Lock()
	f := s.flight
	c.flight = f
	s.children = append(s.children, c)
	s.mu.Unlock()
	f.SetPhase(name)
	return c
}

// SetFlight attaches a trace-context carrier to the span; children opened
// afterwards inherit it and advance its phase label as they open.
func (s *Span) SetFlight(f *Flight) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.flight = f
	s.mu.Unlock()
}

// Flight returns the span's attached trace-context carrier, or nil.
func (s *Span) Flight() *Flight {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flight
}

// NewStatic builds an already-ended span with a fixed duration — the
// grafting primitive Database.EndTrace uses to splice server-reported
// spans into the client tree. Static spans carry no meter; their stats
// stay zero unless children contribute on export.
func NewStatic(name string, d time.Duration) *Span {
	return &Span{name: name, dur: d, ended: true, start: time.Now()}
}

// Adopt attaches an existing span (typically a NewStatic subtree) as a
// child. Nil children are ignored.
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SetDuration overrides an ended (static) span's duration — used when a
// grafted group's total is only known after its children are attached.
// No-op on a live span, whose duration End measures.
func (s *Span) SetDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.dur = d
	}
	s.mu.Unlock()
}

// SetAttr records a public-size annotation. Callers must only record
// quantities that are public under Definition 1 (sizes, IOSize, padded
// counts) — never key values or data-dependent figures.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// End closes the span: wall time stops and the meter delta since the span
// opened is captured. End is idempotent; spans still open at Export time
// are measured as of the export.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if s.meter != nil {
		s.stats = s.meter.Snapshot().Sub(s.startStats)
	}
}

// Stats returns the span's meter delta: the captured one if ended, a live
// snapshot otherwise.
func (s *Span) Stats() storage.Stats {
	if s == nil {
		return storage.Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.stats
	}
	if s.meter != nil {
		return s.meter.Snapshot().Sub(s.startStats)
	}
	return storage.Stats{}
}

// Node is the exported, JSON-serializable form of a span tree.
type Node struct {
	Name       string           `json:"name"`
	DurationNS int64            `json:"duration_ns"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Stats      storage.Stats    `json:"stats"`
	Children   []*Node          `json:"children,omitempty"`
}

// Export snapshots the span tree as of now. Open spans report their live
// duration and meter delta; a meterless span reports the sum of its
// children's stats so aggregate roots carry meaningful totals.
func (s *Span) Export() *Node {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	n := &Node{Name: s.name}
	if s.ended {
		n.DurationNS = int64(s.dur)
		n.Stats = s.stats
	} else {
		n.DurationNS = int64(time.Since(s.start))
		if s.meter != nil {
			n.Stats = s.meter.Snapshot().Sub(s.startStats)
		}
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	hasMeter := s.meter != nil
	s.mu.Unlock()

	for _, c := range children {
		n.Children = append(n.Children, c.Export())
	}
	if !hasMeter {
		for _, c := range n.Children {
			n.Stats = n.Stats.Add(c.Stats)
		}
	}
	return n
}

// Marshal exports the span tree as indented JSON with a trailing newline —
// the -trace-out file format of cmd/ojoin and cmd/ojoinbench.
func Marshal(s *Span) ([]byte, error) {
	n := s.Export()
	if n == nil {
		return nil, fmt.Errorf("telemetry: marshal of nil span")
	}
	out, err := json.MarshalIndent(n, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Parse decodes a span tree previously written by Marshal.
func Parse(data []byte) (*Node, error) {
	var n Node
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, fmt.Errorf("telemetry: parse: %w", err)
	}
	return &n, nil
}

// Duration returns the node's wall time.
func (n *Node) Duration() time.Duration { return time.Duration(n.DurationNS) }

// ChildSum sums the immediate children's stats — the per-phase counts an
// attribution check compares against the parent's delta.
func (n *Node) ChildSum() storage.Stats {
	var total storage.Stats
	for _, c := range n.Children {
		total = total.Add(c.Stats)
	}
	return total
}

// Find returns the first node with the given name in a depth-first walk of
// the tree rooted at n, or nil.
func (n *Node) Find(name string) *Node {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Walk visits the tree depth-first, pre-order, passing each node's dotted
// phase path (root.child.grandchild) and depth.
func (n *Node) Walk(fn func(path string, depth int, node *Node)) {
	if n == nil {
		return
	}
	n.walk("", 0, fn)
}

func (n *Node) walk(prefix string, depth int, fn func(string, int, *Node)) {
	path := n.Name
	if prefix != "" {
		path = prefix + "." + n.Name
	}
	fn(path, depth, n)
	for _, c := range n.Children {
		c.walk(path, depth+1, fn)
	}
}
