package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"oblivjoin/internal/storage"
)

// Metric types a Family can have.
const (
	CounterType   = "counter"
	GaugeType     = "gauge"
	HistogramType = "histogram"
)

// Family is one exported metric family. Every counter, gauge and histogram
// this module exposes — on ojoinserver's /metrics and /debug/vars, in
// ojoin's shard block and its -watch frames — is a Family value, and
// WritePrometheus is the only code that knows their text format.
//
// Leakage discipline: a label value may only be a store name a client
// created, a wire op name, a shard index or address, or a session's ID and
// tenant, and every value must be a function of public sizes or of timing
// the server observes anyway (the root package's leak audit checks both).
type Family struct {
	Name string `json:"name"`
	Help string `json:"help"`
	Type string `json:"type"`
	// Seconds marks sample values as nanoseconds, rendered as seconds.
	// Histogram snapshots are always nanoseconds.
	Seconds bool     `json:"seconds,omitempty"`
	Samples []Sample `json:"samples"`
}

// Sample is one labelled value of a family: Value for a counter or a
// gauge, Hist for a histogram. Labels alternate name and value.
type Sample struct {
	Labels []string           `json:"labels,omitempty"`
	Value  float64            `json:"value"`
	Hist   *HistogramSnapshot `json:"histogram,omitempty"`
}

// NewCounter returns an empty counter family.
func NewCounter(name, help string) Family {
	return Family{Name: name, Help: help, Type: CounterType}
}

// NewGauge returns an empty gauge family.
func NewGauge(name, help string) Family {
	return Family{Name: name, Help: help, Type: GaugeType}
}

// NewHistogramFamily returns an empty histogram family.
func NewHistogramFamily(name, help string) Family {
	return Family{Name: name, Help: help, Type: HistogramType}
}

// Add appends a sample; labels alternate name and value.
func (f *Family) Add(v float64, labels ...string) {
	f.Samples = append(f.Samples, Sample{Labels: labels, Value: v})
}

// AddHist appends a histogram sample; labels alternate name and value.
func (f *Family) AddHist(h HistogramSnapshot, labels ...string) {
	f.Samples = append(f.Samples, Sample{Labels: labels, Hist: &h})
}

// MeterMetrics returns a client-side storage.Meter's trace-cap accounting.
// The meter lives on the trusted client, so these families belong on
// client-side surfaces (ojoin's shard block and -watch frames), never on
// the server's endpoint. A nil meter has none.
func MeterMetrics(m *storage.Meter) []Family {
	if m == nil {
		return nil
	}
	dropped := NewCounter("ojoin_meter_trace_dropped_total", "Trace entries dropped at the meter's trace cap.")
	dropped.Add(float64(m.Dropped()))
	buffered := NewGauge("ojoin_meter_trace_len", "Trace entries currently buffered by the meter.")
	buffered.Add(float64(m.TraceLen()))
	return []Family{dropped, buffered}
}

// WritePrometheus renders families in the Prometheus text exposition
// format: HELP and TYPE lines, then one line per sample; a histogram
// sample becomes cumulative _bucket{le=...} lines in seconds (the +Inf
// bucket is the count, as the format requires), _sum and _count. The
// exposition is built in memory and written with one Write.
func WritePrometheus(w io.Writer, fams ...Family) error {
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			if s.Hist == nil {
				v := strconv.FormatFloat(s.Value, 'f', -1, 64)
				if f.Seconds {
					v = seconds(int64(s.Value))
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labelSet(s.Labels, ""), v)
				continue
			}
			var cum int64
			for i, bound := range s.Hist.Bounds {
				cum += s.Hist.Counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, labelSet(s.Labels, seconds(bound)), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, labelSet(s.Labels, "+Inf"), s.Hist.Count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labelSet(s.Labels, ""), seconds(s.Hist.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labelSet(s.Labels, ""), s.Hist.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelEscaper escapes the three characters the text format defines
// escapes for; nothing else in a label value is escaped.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelSet renders {name="value",...}, with le appended when non-empty,
// or "" for no labels. Invalid UTF-8 in a value becomes U+FFFD.
func labelSet(kv []string, le string) string {
	if le != "" {
		kv = append(kv[:len(kv):len(kv)], "le", le)
	}
	if len(kv) == 0 {
		return ""
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+`="`+labelEscaper.Replace(strings.ToValidUTF8(kv[i+1], "\uFFFD"))+`"`)
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// seconds formats nanoseconds as a decimal seconds string without float
// drift — the Prometheus duration convention.
func seconds(ns int64) string {
	return fmt.Sprintf("%d.%09d", ns/1e9, ns%1e9)
}

// Merge returns the bucket-wise sum of two snapshots over identical
// bounds — how a directory of stores aggregates per-store histograms, or
// a client merges per-shard ones. An empty snapshot merges as identity.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if s.Count == 0 && len(s.Bounds) == 0 {
		return o
	}
	if o.Count == 0 && len(o.Bounds) == 0 {
		return s
	}
	out := HistogramSnapshot{
		Bounds: append([]int64(nil), s.Bounds...),
		Counts: append([]int64(nil), s.Counts...),
		Sum:    s.Sum + o.Sum,
		Count:  s.Count + o.Count,
	}
	for i := range out.Counts {
		if i < len(o.Counts) {
			out.Counts[i] += o.Counts[i]
		}
	}
	return out
}
