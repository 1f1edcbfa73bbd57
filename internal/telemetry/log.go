package telemetry

import (
	"context"
	"io"
	"log/slog"
	"sort"
)

// NewLogger returns a structured JSON logger suitable for span-tree
// emission — one line per record, machine-parseable, stdlib only.
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// Log emits one structured record per span, depth-first, with the dotted
// phase path, wall time, traffic counters, and the span's
// public-size annotations (prefixed "attr_"). Use with NewLogger or any
// slog.Logger the host application already runs.
func (n *Node) Log(l *slog.Logger) {
	if n == nil || l == nil {
		return
	}
	n.Walk(func(path string, depth int, node *Node) {
		attrs := []slog.Attr{
			slog.String("phase", path),
			slog.Int("depth", depth),
			slog.Float64("duration_ms", float64(node.DurationNS)/1e6),
			slog.Int64("block_reads", node.Stats.BlockReads),
			slog.Int64("block_writes", node.Stats.BlockWrites),
			slog.Int64("bytes_moved", node.Stats.BytesMoved()),
			slog.Int64("rounds", node.Stats.NetworkRounds),
		}
		keys := make([]string, 0, len(node.Attrs))
		for k := range node.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			attrs = append(attrs, slog.Int64("attr_"+k, node.Attrs[k]))
		}
		l.LogAttrs(context.Background(), slog.LevelInfo, "span", attrs...)
	})
}
