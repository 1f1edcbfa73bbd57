package diskstore

import "oblivjoin/internal/telemetry"

// FsyncHistogram returns the directory-wide log fsync latency histogram:
// the per-store histograms merged bucket-wise (all stores share the fixed
// boundaries).
func (d *Dir) FsyncHistogram() telemetry.HistogramSnapshot {
	return d.mergeHistograms((*Store).FsyncHistogram)
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

// Metrics returns the persistence layer's families: per-store durability
// counters — log traffic, fsync cadence, checkpointing, and crash recovery
// — plus the log and segment fsync latency histograms. Like the request
// counters these are functions of request sizes and timing only, never of
// block contents.
func (d *Dir) Metrics() []telemetry.Family {
	counter := telemetry.NewCounter
	fams := []telemetry.Family{
		counter("ojoin_disk_wal_records_total", "Batch records appended to the write-ahead log."),
		counter("ojoin_disk_wal_bytes_total", "Bytes appended to the write-ahead log."),
		counter("ojoin_disk_wal_fsyncs_total", "WAL fsync calls (group commit batches these)."),
		counter("ojoin_disk_seg_fsyncs_total", "Segment-file fsync calls (checkpoints)."),
		counter("ojoin_disk_checkpoints_total", "Log generations retired by a segment fsync."),
		counter("ojoin_disk_recoveries_total", "Opens that found a log chain or a torn record (unclean shutdown)."),
		counter("ojoin_disk_recovered_records_total", "Log records replayed during recovery."),
		counter("ojoin_disk_torn_tail_bytes_total", "Bytes of interrupted log records discarded during recovery."),
		counter("ojoin_disk_blocks_read_total", "Slot reads served from the segment files."),
		counter("ojoin_disk_blocks_written_total", "Slot writes applied to the segment files."),
	}
	names, perStore, _ := d.Stats()
	for _, n := range names {
		s := perStore[n]
		for i, v := range []int64{s.WALRecords, s.WALBytes, s.WALFsyncs, s.SegFsyncs, s.Checkpoints,
			s.Recoveries, s.RecoveredRecords, s.TornTailBytes, s.BlocksRead, s.BlocksWritten} {
			fams[i].Add(float64(v), "store", n)
		}
	}
	wal := telemetry.NewHistogramFamily("ojoin_disk_wal_fsync_seconds", "Log fsync latency on the commit path (group commit).")
	wal.AddHist(d.FsyncHistogram())
	seg := telemetry.NewHistogramFamily("ojoin_disk_seg_fsync_seconds", "Segment fsync latency: the cost of a checkpoint.")
	seg.AddHist(d.mergeHistograms((*Store).SegFsyncHistogram))
	return append(fams, wal, seg)
}
