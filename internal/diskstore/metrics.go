package diskstore

import (
	"fmt"
	"io"

	"oblivjoin/internal/telemetry"
)

// FsyncHistogram returns the directory-wide log fsync latency histogram:
// the per-store histograms merged bucket-wise (all stores share the fixed
// boundaries).
func (d *Dir) FsyncHistogram() telemetry.HistogramSnapshot {
	return d.mergeHistograms((*Store).FsyncHistogram)
}

// SegFsyncHistogram returns the directory-wide segment fsync latency
// histogram — what checkpoints cost.
func (d *Dir) SegFsyncHistogram() telemetry.HistogramSnapshot {
	return d.mergeHistograms((*Store).SegFsyncHistogram)
}

func (d *Dir) mergeHistograms(of func(*Store) telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d.mu.Lock()
	stores := make([]*Store, 0, len(d.stores))
	for _, st := range d.stores {
		stores = append(stores, st)
	}
	d.mu.Unlock()
	var merged telemetry.HistogramSnapshot
	for _, st := range stores {
		merged = merged.Merge(of(st))
	}
	return merged
}

// WriteMetrics renders the persistence layer's durability counters — log
// traffic, fsync cadence, checkpointing, and crash recovery — plus the log
// and segment fsync latency histograms, in the Prometheus text exposition
// format.
// Like the request counters these are functions of request sizes and
// timing only, never of block contents.
func WriteMetrics(w io.Writer, dir *Dir) {
	names, perStore, _ := dir.Stats()
	type metric struct {
		name, help string
		value      func(Stats) int64
	}
	metrics := []metric{
		{"ojoin_disk_wal_records_total", "Batch records appended to the write-ahead log.",
			func(s Stats) int64 { return s.WALRecords }},
		{"ojoin_disk_wal_bytes_total", "Bytes appended to the write-ahead log.",
			func(s Stats) int64 { return s.WALBytes }},
		{"ojoin_disk_wal_fsyncs_total", "WAL fsync calls (group commit batches these).",
			func(s Stats) int64 { return s.WALFsyncs }},
		{"ojoin_disk_seg_fsyncs_total", "Segment-file fsync calls (checkpoints).",
			func(s Stats) int64 { return s.SegFsyncs }},
		{"ojoin_disk_checkpoints_total", "Log generations retired by a segment fsync.",
			func(s Stats) int64 { return s.Checkpoints }},
		{"ojoin_disk_recoveries_total", "Opens that found a log chain or a torn record (unclean shutdown).",
			func(s Stats) int64 { return s.Recoveries }},
		{"ojoin_disk_recovered_records_total", "Log records replayed during recovery.",
			func(s Stats) int64 { return s.RecoveredRecords }},
		{"ojoin_disk_torn_tail_bytes_total", "Bytes of interrupted log records discarded during recovery.",
			func(s Stats) int64 { return s.TornTailBytes }},
		{"ojoin_disk_blocks_read_total", "Slot reads served from the segment files.",
			func(s Stats) int64 { return s.BlocksRead }},
		{"ojoin_disk_blocks_written_total", "Slot writes applied to the segment files.",
			func(s Stats) int64 { return s.BlocksWritten }},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for _, n := range names {
			fmt.Fprintf(w, "%s{store=%q} %d\n", m.name, n, m.value(perStore[n]))
		}
	}
	fmt.Fprintf(w, "# HELP ojoin_disk_wal_fsync_seconds Log fsync latency on the commit path (group commit).\n")
	fmt.Fprintf(w, "# TYPE ojoin_disk_wal_fsync_seconds histogram\n")
	telemetry.WriteHistogramText(w, "ojoin_disk_wal_fsync_seconds", "", dir.FsyncHistogram())
	fmt.Fprintf(w, "# HELP ojoin_disk_seg_fsync_seconds Segment fsync latency: the cost of a checkpoint.\n")
	fmt.Fprintf(w, "# TYPE ojoin_disk_seg_fsync_seconds histogram\n")
	telemetry.WriteHistogramText(w, "ojoin_disk_seg_fsync_seconds", "", dir.SegFsyncHistogram())
}
