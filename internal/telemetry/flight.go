package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// MaxPhaseLen bounds phase labels carried on the wire.
const MaxPhaseLen = 64

// phaseRegistry is the set of phase labels allowed to ride the wire.
// Phase labels annotate server spans with the client phase that caused
// an op, so they become adversary-visible; restricting them to a fixed,
// pre-declared alphabet keeps the annotation a function of public data
// only — the label says *which declared phase* ran, never anything about
// the private tuples inside it. SetPhase silently drops undeclared
// labels, so a stray data-derived string can never leak.
var (
	phaseMu       sync.RWMutex
	phaseRegistry = map[string]bool{}
)

// corePhases are the span names the join engine emits today (the core
// operators, the sort stages, and the ORAM scheduler's flush rounds).
// They are all derived from algorithm structure and public sizes.
var corePhases = []string{
	"compact", "decode", "filter", "flush", "load", "merge", "pad",
	"reset", "scan",
	"sort.local", "sort.merge", "sort.runs",
	"join.band", "join.inlj", "join.inlj.tagged", "join.multiway",
	"join.smj", "join.smj.chain",
	"oram.flush",
}

func init() { DeclarePhases(corePhases...) }

// DeclarePhases adds names to the public-phase alphabet. Callers declare
// every phase label at init time, before any private data is processed,
// so membership itself carries no information about inputs. Names longer
// than MaxPhaseLen are ignored.
func DeclarePhases(names ...string) {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	for _, n := range names {
		if n != "" && len(n) <= MaxPhaseLen {
			phaseRegistry[n] = true
		}
	}
}

// PublicPhase reports whether name is in the declared-public alphabet.
func PublicPhase(name string) bool {
	phaseMu.RLock()
	defer phaseMu.RUnlock()
	return phaseRegistry[name]
}

// Flight is the in-process carrier of a distributed trace context: the
// active trace ID, a span-ID allocator, and the current public phase
// label. One Flight is shared by a Database, its remote clients, and the
// ORAM scheduler; clients stamp its state onto outgoing requests. All
// methods are nil-safe and goroutine-safe, so the goroutine setting the
// phase and any goroutine stamping a request need no lock of their own.
//
// A Flight never performs server accesses and never influences which
// accesses happen: it only annotates requests the engine was already
// sending, so the server-visible access trace is identical with and
// without one (asserted by the trace-identity tests).
type Flight struct {
	traceID  atomic.Uint64
	nextSpan atomic.Uint64
	phase    atomic.Value // string
}

// NewFlight returns an inactive flight.
func NewFlight() *Flight {
	f := &Flight{}
	f.phase.Store("")
	return f
}

// Activate arms the flight with a trace ID (0 generates a random one) and
// returns the active ID. Requests stamped while active carry the trace
// context; Deactivate stops the stamping.
func (f *Flight) Activate(id uint64) uint64 {
	if f == nil {
		return 0
	}
	for id == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			id = binary.LittleEndian.Uint64(b[:])
		} else {
			id = 1
		}
	}
	f.traceID.Store(id)
	return id
}

// Deactivate disarms the flight; subsequent requests go out traceless.
func (f *Flight) Deactivate() {
	if f == nil {
		return
	}
	f.traceID.Store(0)
	f.phase.Store("")
}

// Active reports whether a trace is armed.
func (f *Flight) Active() bool { return f != nil && f.traceID.Load() != 0 }

// TraceID returns the armed trace ID (0 when inactive).
func (f *Flight) TraceID() uint64 {
	if f == nil {
		return 0
	}
	return f.traceID.Load()
}

// NextSpanID allocates a fresh span ID for one outgoing request.
func (f *Flight) NextSpanID() uint64 {
	if f == nil {
		return 0
	}
	return f.nextSpan.Add(1)
}

// Phase returns the current public phase label ("" when none).
func (f *Flight) Phase() string {
	if f == nil {
		return ""
	}
	p, _ := f.phase.Load().(string)
	return p
}

// SetPhase sets the current phase label. Undeclared labels are dropped
// (the phase stays unchanged): only strings pre-registered through
// DeclarePhases — a fixed, data-independent alphabet — may ride the wire.
func (f *Flight) SetPhase(name string) {
	if f == nil || !PublicPhase(name) {
		return
	}
	f.phase.Store(name)
}

// PushPhase sets the phase and returns a closure restoring the previous
// one — for scoped annotations like the ORAM scheduler's flush rounds,
// which interleave with whatever query phase triggered them.
func (f *Flight) PushPhase(name string) func() {
	if f == nil {
		return func() {}
	}
	prev := f.Phase()
	f.SetPhase(name)
	return func() { f.phase.Store(prev) }
}

// ServerSpan is one server-side op record attributed to a trace. Op is a
// string (the wire op name) so telemetry stays transport-agnostic. All
// fields are public under Definition 1: the tuple (store, op, block
// count, phase) is exactly the adversary-visible access trace, and the
// timings are the adversary-observable wall clock.
type ServerSpan struct {
	TraceID     uint64 `json:"trace_id"`
	SpanID      uint64 `json:"span_id"`
	Phase       string `json:"phase,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	Session     int64  `json:"session,omitempty"`
	Store       string `json:"store"`
	Op          string `json:"op"`
	Blocks      int    `json:"blocks"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
	StoreIONS   int64  `json:"store_io_ns"`
	DurationNS  int64  `json:"duration_ns"`
}

// DefaultSpanRing is the default bounded span-ring capacity. A span is
// ~150 bytes, so the default costs ~10 MB — sized so a full traced query
// at demo scale (tens of thousands of server ops) grafts every round;
// servers that prefer a smaller bound set it via -trace-buffer.
const DefaultSpanRing = 65536

// SpanRing is a bounded ring buffer of recent server spans: appends are
// O(1), memory is fixed, and old spans are overwritten — the /debug/trace
// endpoint serves its snapshot. Safe for concurrent use.
type SpanRing struct {
	mu    sync.Mutex
	buf   []ServerSpan
	next  int
	total int64
}

// NewSpanRing returns a ring holding the last n spans (n <= 0 uses
// DefaultSpanRing).
func NewSpanRing(n int) *SpanRing {
	if n <= 0 {
		n = DefaultSpanRing
	}
	return &SpanRing{buf: make([]ServerSpan, 0, n)}
}

// Append records one span, evicting the oldest when full.
func (r *SpanRing) Append(s ServerSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Snapshot returns the buffered spans oldest-first, filtered by trace ID
// (0 returns everything).
func (r *SpanRing) Snapshot(traceID uint64) []ServerSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ServerSpan, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		s := r.buf[(r.next+i)%len(r.buf)]
		if traceID == 0 || s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// Len returns the number of spans currently buffered.
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of spans ever appended (including evicted).
func (r *SpanRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
