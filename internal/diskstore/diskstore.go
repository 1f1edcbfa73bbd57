package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"time"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

const (
	segSuffix = ".seg"

	segMagic      = 0x4F4A5347 // "OJSG"
	segVersion    = 2
	segHeaderSize = 4096
	maxNameLen    = 4000

	defaultCheckpointBytes = 1 << 20
)

// logSuffixes name the two log files of a store (wal.go).
var logSuffixes = [2]string{".wal0", ".wal1"}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("diskstore: store is closed")

// Options configures a Store (and every store a Dir opens).
type Options struct {
	// SyncEvery fsyncs the log every Nth batch commit (group commit).
	// Values <= 1 fsync on every commit: a batch is durable the moment the
	// call returns. Larger values amortize the fsync across up to N batches.
	// A process crash never loses or tears a batch either way; a power loss
	// may lose or tear the most recent N-1 batches (a segment page can reach
	// the disk before the unsynced record that would repair it).
	SyncEvery int
	// CheckpointBytes bounds a log generation: when the log grows past
	// this, the segment is fsynced and the next generation starts in the
	// other log file. 0 means 1 MiB.
	CheckpointBytes int64
	// FS substitutes the filesystem; nil means the operating system. Tests
	// inject one that kills the store at exact operation boundaries.
	FS FS
}

func (o Options) syncEvery() int {
	if o.SyncEvery <= 1 {
		return 1
	}
	return o.SyncEvery
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointBytes <= 0 {
		return defaultCheckpointBytes
	}
	return o.CheckpointBytes
}

func (o Options) fs() FS {
	if o.FS == nil {
		return osFS{}
	}
	return o.FS
}

// Stats counts the store's durability work since open. Every field is a
// function of request sizes and timing only — safe to publish from the
// untrusted server's metrics endpoint.
type Stats struct {
	// WALRecords and WALBytes count batch records appended to the log.
	WALRecords, WALBytes int64
	// WALFsyncs and SegFsyncs count fsync calls per file kind.
	WALFsyncs, SegFsyncs int64
	// Checkpoints counts log generations retired by a segment fsync.
	Checkpoints int64
	// Recoveries counts opens that found a log chain or a torn record
	// (unclean shutdown); RecoveredRecords the records replayed;
	// TornTailBytes the bytes of interrupted records discarded. Space a
	// dead generation left behind a chain is not a tail and is not counted.
	Recoveries, RecoveredRecords, TornTailBytes int64
	// BlocksRead and BlocksWritten count slot-level transfers.
	BlocksRead, BlocksWritten int64
}

// Add returns s with o's counters added — used to aggregate per-store stats
// into a directory total.
func (s Stats) Add(o Stats) Stats {
	s.WALRecords += o.WALRecords
	s.WALBytes += o.WALBytes
	s.WALFsyncs += o.WALFsyncs
	s.SegFsyncs += o.SegFsyncs
	s.Checkpoints += o.Checkpoints
	s.Recoveries += o.Recoveries
	s.RecoveredRecords += o.RecoveredRecords
	s.TornTailBytes += o.TornTailBytes
	s.BlocksRead += o.BlocksRead
	s.BlocksWritten += o.BlocksWritten
	return s
}

// Store is one named, file-backed block store. It implements
// storage.AppendExchangeStore with the same semantics as MemStore — batches
// apply in order, so duplicate indices resolve last-writer-wins both live
// and through log replay — plus Close/Sync lifecycle and crash recovery;
// every block method is a form of ExchangeTo.
// It is safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	name      string
	slots     int64
	blockSize int
	seg       File
	logs      [2]File
	opts      Options

	// The current generation gen appends to logs[cur] at walSize; the other
	// log holds the previous generation's chain. genRecords counts the
	// current generation's records and unsynced the commits since the last
	// log fsync, so unsynced < genRecords exactly when an fsync has covered
	// this generation's first record. logSize tracks each file's length.
	cur        int
	gen, seq   uint64
	walSize    int64
	logSize    [2]int64
	genRecords int
	unsynced   int
	// recBuf is the commit path's record buffer, reused across commits.
	recBuf []byte

	// failed is the first I/O error on a mutating path. It fails every
	// later operation: the files may hold half of what the caller was told
	// failed, and only reopening (recovery) restores a whole-batch state.
	failed error
	closed bool
	stats  Stats
	// fsyncHist and segFsyncHist record log and segment fsync durations —
	// the durability component of server-side op latency (DESIGN.md §2.13).
	fsyncHist, segFsyncHist *telemetry.Histogram
}

var _ storage.AppendExchangeStore = (*Store)(nil)

// OpenStore opens or creates the store persisted at basePath+".seg" and its
// two logs. Creating requires positive slots and blockSize; opening an
// existing store reads the geometry from the segment header and, when
// slots/blockSize/name are non-zero, verifies they match. Opening runs
// recovery: the newest log chain is replayed into the segment and the
// segment fsynced, so the returned store always reflects exactly the
// batches that committed before the last shutdown or crash.
func OpenStore(basePath, name string, slots int64, blockSize int, opts Options) (*Store, error) {
	s := &Store{name: name, slots: slots, blockSize: blockSize, opts: opts,
		fsyncHist: telemetry.NewHistogram(), segFsyncHist: telemetry.NewHistogram()}
	if err := s.open(basePath); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

func (s *Store) open(basePath string) error {
	fs := s.opts.fs()
	seg, err := fs.OpenFile(basePath+segSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: open segment: %w", err)
	}
	s.seg = seg
	size, err := seg.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		err = s.create()
	} else {
		err = s.openExisting()
	}
	if err != nil {
		return err
	}
	for i, suffix := range logSuffixes {
		if s.logs[i], err = fs.OpenFile(basePath+suffix, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
			return fmt.Errorf("diskstore: open log: %w", err)
		}
	}
	return s.recover()
}

// closeFiles releases whichever files are open, reporting the first error.
func (s *Store) closeFiles() error {
	var first error
	for _, f := range []File{s.logs[0], s.logs[1], s.seg} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// create initializes a fresh segment: header first, then a sparse truncate
// to the full slot region (all-zero slots read back as valid empty blocks),
// then fsync so the geometry is durable before any commit can reference it.
func (s *Store) create() error {
	if s.slots < 0 {
		return fmt.Errorf("diskstore: negative store size %d", s.slots)
	}
	if s.blockSize <= 0 {
		return fmt.Errorf("diskstore: non-positive block size %d", s.blockSize)
	}
	if len(s.name) > maxNameLen {
		return fmt.Errorf("diskstore: store name of %d bytes exceeds %d", len(s.name), maxNameLen)
	}
	hdr := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(s.slots))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(s.blockSize))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(s.name)))
	copy(hdr[24:], s.name)
	crc := crc32.Checksum(hdr[:24+len(s.name)], crcTable)
	binary.LittleEndian.PutUint32(hdr[24+len(s.name):], crc)
	if _, err := s.seg.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("diskstore: write segment header: %w", err)
	}
	if err := s.seg.Truncate(s.fullSize()); err != nil {
		return fmt.Errorf("diskstore: size segment: %w", err)
	}
	return s.syncSeg()
}

// openExisting validates the header and fills in (or checks) the geometry.
// A header that fails its CRC refuses to open: it means either real
// corruption or a crash during creation, and since creation syncs the
// header before acknowledging, no committed data can live behind a bad
// header — delete the store's files to recreate.
func (s *Store) openExisting() error {
	hdr := make([]byte, segHeaderSize)
	if _, err := s.seg.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("diskstore: read segment header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != segMagic {
		return fmt.Errorf("diskstore: bad segment magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != segVersion {
		return fmt.Errorf("diskstore: unsupported segment version %d (this build reads version %d)", v, segVersion)
	}
	slots := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	blockSize := int(binary.LittleEndian.Uint32(hdr[16:20]))
	nameLen := int(binary.LittleEndian.Uint32(hdr[20:24]))
	if slots < 0 || blockSize <= 0 || nameLen > maxNameLen || 24+nameLen+4 > segHeaderSize {
		return fmt.Errorf("diskstore: implausible segment header (%d slots × %d bytes, name of %d)", slots, blockSize, nameLen)
	}
	want := binary.LittleEndian.Uint32(hdr[24+nameLen:])
	if got := crc32.Checksum(hdr[:24+nameLen], crcTable); got != want {
		return fmt.Errorf("%w: segment header crc %#x, want %#x", ErrCorrupt, got, want)
	}
	name := string(hdr[24 : 24+nameLen])
	if s.name != "" && s.name != name {
		return fmt.Errorf("diskstore: store is named %q, not %q", name, s.name)
	}
	if s.slots != 0 && s.slots != slots {
		return fmt.Errorf("diskstore: store %q has %d slots, not %d", name, slots, s.slots)
	}
	if s.blockSize != 0 && s.blockSize != blockSize {
		return fmt.Errorf("diskstore: store %q has %d-byte blocks, not %d", name, blockSize, s.blockSize)
	}
	s.name, s.slots, s.blockSize = name, slots, blockSize
	// A crash between the header write and the sizing truncate can leave the
	// slot region short; re-extend it (sparse zeros are valid empty slots).
	if size, err := s.seg.Size(); err != nil {
		return err
	} else if size < s.fullSize() {
		if err := s.seg.Truncate(s.fullSize()); err != nil {
			return fmt.Errorf("diskstore: size segment: %w", err)
		}
	}
	return nil
}

func (s *Store) fullSize() int64 {
	return segHeaderSize + s.slots*int64(s.blockSize)
}

// recover reads both logs, replays the chain with the highest generation
// into the segment (idempotent: absolute slots, absolute contents), fsyncs
// the segment, and starts the next generation in the other log, durably
// emptied. Everything else in the logs is dead: by invariant I1 (doc.go) the
// existence of the newest chain's first record proves every older generation
// is durable in the segment. The newest chain is only read, and nothing else
// is touched before it and the segment are durable, so a crash during
// recovery leaves the next attempt the same input.
func (s *Store) recover() error {
	var bufs [2][]byte
	var chains [2][]walRecord
	var ends [2]int
	for i, f := range s.logs {
		size, err := f.Size()
		if err != nil {
			return err
		}
		s.logSize[i] = size
		if size < walHeaderSize {
			// Fresh log (or one whose creation never completed — in which
			// case no record was ever appended to it, let alone acknowledged):
			// it holds no chain, and emptyLog below gives it its header.
			continue
		}
		bufs[i] = make([]byte, size)
		if _, err := f.ReadAt(bufs[i], 0); err != nil {
			return fmt.Errorf("diskstore: read log: %w", err)
		}
		if err := parseWALHeader(bufs[i], s.blockSize); err != nil {
			return err
		}
		chains[i], ends[i] = scanChain(bufs[i], s.blockSize, s.slots)
	}
	newest := -1
	for i, chain := range chains {
		if len(chain) > 0 && (newest < 0 || chain[0].Gen > chains[newest][0].Gen) {
			newest = i
		}
	}
	if len(chains[0]) > 0 && len(chains[1]) > 0 && chains[0][0].Gen == chains[1][0].Gen {
		return fmt.Errorf("%w: both logs of %s hold generation %d", ErrCorrupt, s.name, chains[0][0].Gen)
	}
	var minGen uint64
	if newest >= 0 {
		minGen = chains[newest][0].Gen
	}
	var torn int64
	for i := range bufs {
		if bufs[i] != nil {
			torn += tornRecordLen(bufs[i][ends[i]:], s.blockSize, s.slots, minGen)
		}
	}
	s.stats.TornTailBytes += torn
	if newest < 0 {
		// No chain: nothing was committed since the last clean Close (or
		// ever). Whatever the logs hold is an interrupted first record and
		// what lay behind it; empty them so generation numbering can restart
		// below any stamp that might survive there. A log found empty is
		// fsynced all the same: a process that died inside Close may have
		// left its truncate in the page cache and its chain on the disk.
		for i := range s.logs {
			if err := s.emptyLog(i); err != nil {
				return err
			}
		}
		if torn > 0 {
			s.stats.Recoveries++
		}
		return s.startGeneration(1, 0)
	}
	chain := chains[newest]
	for _, rec := range chain {
		for k := 0; k < rec.Count; k++ {
			i, blk := rec.slot(k, s.blockSize)
			if err := s.writeSlot(i, blk); err != nil {
				return err
			}
		}
	}
	s.seq = chain[len(chain)-1].Seq
	s.stats.Recoveries++
	s.stats.RecoveredRecords += int64(len(chain))
	// After a process crash the chain just read may still sit in the page
	// cache; I3 needs it durable before a newer generation exists.
	if err := s.syncLog(newest); err != nil {
		return err
	}
	if err := s.syncSeg(); err != nil {
		return err
	}
	s.stats.Checkpoints++
	// The other log may hold what a power loss left of a generation newer
	// than the chain — its first record lost, later ones not — on the disk if
	// not in the page cache (a recovery that died here before). This one is
	// about to issue that generation number again in that file, and a
	// survivor must not line up behind the new first record.
	if err := s.emptyLog(1 - newest); err != nil {
		return err
	}
	return s.startGeneration(chain[0].Gen+1, 1-newest)
}

// startGeneration points the commit path at the start of log file cur under
// generation number gen. The file's old contents — a generation at least
// two behind — are overwritten in place as records arrive, unless a
// bulk-load record made the file long enough to be worth shrinking (doc.go).
func (s *Store) startGeneration(gen uint64, cur int) error {
	s.gen, s.cur = gen, cur
	s.walSize = walHeaderSize
	s.genRecords = 0
	if s.logSize[cur] > 2*s.opts.checkpointBytes() {
		return s.emptyLog(cur)
	}
	return nil
}

// emptyLog durably reduces log i, which must hold nothing recovery could
// need, to a bare header. The fsync is what lets logSize[i] == walHeaderSize
// mean "holds no chain" on the disk as well as in the page cache for as long
// as this process lives — Close and startGeneration rely on it.
func (s *Store) emptyLog(i int) error {
	if s.logSize[i] < walHeaderSize {
		if _, err := s.logs[i].WriteAt(appendWALHeader(nil, s.blockSize), 0); err != nil {
			return s.fail("log header write", err)
		}
	} else if s.logSize[i] > walHeaderSize {
		if err := s.logs[i].Truncate(walHeaderSize); err != nil {
			return s.fail("log truncate", err)
		}
	}
	s.logSize[i] = walHeaderSize
	return s.syncLog(i)
}

// Name returns the store's registered name.
func (s *Store) Name() string { return s.name }

// Len implements storage.Store.
func (s *Store) Len() int64 { return s.slots }

// BlockSize implements storage.Store.
func (s *Store) BlockSize() int { return s.blockSize }

// Stats returns a snapshot of the durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// FsyncHistogram snapshots the serving-path log fsync latency histogram.
func (s *Store) FsyncHistogram() telemetry.HistogramSnapshot {
	return s.fsyncHist.Snapshot()
}

// SegFsyncHistogram snapshots the segment fsync latency histogram — the
// whole cost of a checkpoint.
func (s *Store) SegFsyncHistogram() telemetry.HistogramSnapshot {
	return s.segFsyncHist.Snapshot()
}

// usable gates every operation: a closed store reports ErrClosed, a failed
// one its first I/O error. Callers hold s.mu.
func (s *Store) usable() error {
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return fmt.Errorf("diskstore: store %s failed and must be reopened: %w", s.name, s.failed)
	}
	return nil
}

// fail records the first I/O error of a mutating path and returns it.
func (s *Store) fail(op string, err error) error {
	s.failed = fmt.Errorf("diskstore: %s (%s): %w", op, s.name, err)
	return s.failed
}

func (s *Store) slotOff(i int64) int64 {
	return segHeaderSize + i*int64(s.blockSize)
}

// readSlotsTo appends the (already range-checked) slots to dst, reading
// straight into its spare capacity and growing it at most once. Callers
// hold s.mu.
func (s *Store) readSlotsTo(dst []byte, idxs []int64) ([]byte, error) {
	dst = slices.Grow(dst, len(idxs)*s.blockSize)
	for _, i := range idxs {
		off := len(dst)
		dst = dst[:off+s.blockSize]
		if _, err := s.seg.ReadAt(dst[off:], s.slotOff(i)); err != nil {
			return nil, fmt.Errorf("diskstore: read slot %d (%s): %w", i, s.name, err)
		}
	}
	s.stats.BlocksRead += int64(len(idxs))
	return dst, nil
}

// writeSlot writes one slot. Callers hold s.mu and guarantee len(data) ==
// blockSize.
func (s *Store) writeSlot(i int64, data []byte) error {
	if _, err := s.seg.WriteAt(data, s.slotOff(i)); err != nil {
		return s.fail(fmt.Sprintf("write slot %d", i), err)
	}
	return nil
}

// syncSeg fsyncs the segment.
func (s *Store) syncSeg() error {
	start := time.Now()
	if err := s.seg.Sync(); err != nil {
		return s.fail("segment sync", err)
	}
	s.segFsyncHist.Observe(time.Since(start))
	s.stats.SegFsyncs++
	return nil
}

// syncLog fsyncs log i.
func (s *Store) syncLog(i int) error {
	start := time.Now()
	if err := s.logs[i].Sync(); err != nil {
		return s.fail("log sync", err)
	}
	s.fsyncHist.Observe(time.Since(start))
	s.stats.WALFsyncs++
	return nil
}

// checkRange validates one index, wrapping storage.ErrOutOfRange with the
// offending index and store name (the storage package's diagnosability
// contract).
func (s *Store) checkRange(op string, i int64) error {
	if i < 0 || i >= s.slots {
		return fmt.Errorf("%w: %s %d of %d (%s)", storage.ErrOutOfRange, op, i, s.slots, s.name)
	}
	return nil
}

// commit runs the atomic batch protocol: append one log record, fsync per
// the group-commit knob, apply the slots in order (duplicate indices:
// last-writer-wins, matching replay), maybe checkpoint. Callers hold s.mu
// and have validated every index and payload — a record must never carry an
// index its own replay would reject. Any I/O error fails the store: the
// record may or may not be in the log and the batch may be half applied, so
// nothing may be served from it until recovery has made the batch whole or
// absent.
func (s *Store) commit(idxs []int64, data [][]byte) error {
	rec := slices.Grow(s.recBuf[:0], recordLen(len(idxs), s.blockSize))
	rec = appendWALRecord(rec, s.gen, s.seq+1, idxs, data, s.blockSize)
	if int64(cap(rec)) <= s.opts.checkpointBytes() {
		s.recBuf = rec
	} else {
		s.recBuf = nil // a bulk-load record does not keep its buffer
	}
	if _, err := s.logs[s.cur].WriteAt(rec, s.walSize); err != nil {
		return s.fail("log append", err)
	}
	s.seq++
	s.walSize += int64(len(rec))
	s.logSize[s.cur] = max(s.logSize[s.cur], s.walSize)
	s.genRecords++
	s.stats.WALRecords++
	s.stats.WALBytes += int64(len(rec))
	s.unsynced++
	if s.unsynced >= s.opts.syncEvery() {
		if err := s.syncLog(s.cur); err != nil {
			return err
		}
		s.unsynced = 0
	}
	for k, i := range idxs {
		if err := s.writeSlot(i, data[k]); err != nil {
			return err
		}
	}
	s.stats.BlocksWritten += int64(len(idxs))
	if s.walSize >= s.opts.checkpointBytes() {
		return s.checkpoint()
	}
	return nil
}

// checkpoint retires the current generation, which must hold a record: one
// segment fsync, after which the next generation starts at the head of the
// other log. No log is truncated or fsynced: by I1 the first record of the
// next generation can only be written after this fsync, so its existence is
// the durable checkpoint marker, and by I2 it lands in the file of the
// generation before this one, never on this generation's chain.
//
// The one exception keeps I3: a generation no log fsync has covered (it is
// shorter than SyncEvery commits) is fsynced here, so that the chain of the
// generation before the newest is always durable from its first record and
// a power loss can never promote a still older chain.
func (s *Store) checkpoint() error {
	if s.unsynced >= s.genRecords {
		if err := s.syncLog(s.cur); err != nil {
			return err
		}
		s.unsynced = 0
	}
	if err := s.syncSeg(); err != nil {
		return err
	}
	s.stats.Checkpoints++
	return s.startGeneration(s.gen+1, 1-s.cur)
}

// syncLocked makes every committed batch durable. Unlike the checkpoint the
// commit path takes, it first fsyncs the log holding the unsynced records
// (the current one, or the previous one's tail when this generation is
// still empty): otherwise a power loss could replay a durable prefix of
// that chain over the fuller segment and undo the batches behind it. With
// nothing committed since the last checkpoint it does nothing.
func (s *Store) syncLocked() error {
	if s.unsynced > 0 {
		i := s.cur
		if s.genRecords == 0 {
			i = 1 - s.cur
		}
		if err := s.syncLog(i); err != nil {
			return err
		}
		s.unsynced = 0
	}
	if s.genRecords == 0 {
		return nil
	}
	return s.checkpoint()
}

// Read implements storage.Store: an exchange of one read. The returned
// slice is the caller's.
func (s *Store) Read(i int64) ([]byte, error) {
	return s.ExchangeTo(nil, nil, nil, []int64{i})
}

// Write implements storage.Store: an exchange of one write. Even a
// single-block write goes through the log: an in-place slot update could
// tear mid-block, and only the log (whose record CRC detects its own torn
// tail) can repair it to a whole value on replay.
func (s *Store) Write(i int64, data []byte) error {
	_, err := s.ExchangeTo(nil, []int64{i}, [][]byte{data}, nil)
	return err
}

// ReadMany implements storage.ExchangeStore: an exchange with nothing to
// write, into fresh memory, carved.
func (s *Store) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := s.ExchangeTo(nil, nil, nil, idxs)
	return storage.Carve(flat, s.blockSize), err
}

// WriteMany implements storage.ExchangeStore: an exchange with nothing to
// read.
func (s *Store) WriteMany(idxs []int64, data [][]byte) error {
	_, err := s.ExchangeTo(nil, idxs, data, nil)
	return err
}

// Exchange implements storage.ExchangeStore: ExchangeTo into fresh memory,
// carved.
func (s *Store) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	flat, err := s.ExchangeTo(nil, writeIdxs, writeData, readIdxs)
	return storage.Carve(flat, s.blockSize), err
}

// ExchangeTo implements storage.AppendExchangeStore, and is the one block
// implementation of the store: the whole exchange is validated, the writes
// commit atomically through one WAL record — after a crash, every block
// holds either its pre-batch or post-batch value consistently across the
// batch — and then the reads are served, all under one lock so the reads
// observe the freshly written blocks.
func (s *Store) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) != len(writeData) {
		return nil, fmt.Errorf("diskstore: exchange of %d write blocks with %d payloads (%s)", len(writeIdxs), len(writeData), s.name)
	}
	if len(writeIdxs) == 0 && len(readIdxs) == 0 {
		return dst, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return nil, err
	}
	for k, i := range writeIdxs {
		if err := s.checkRange("exchange write", i); err != nil {
			return nil, err
		}
		if len(writeData[k]) != s.blockSize {
			return nil, fmt.Errorf("diskstore: exchange write of %d bytes to %d-byte block (%s)", len(writeData[k]), s.blockSize, s.name)
		}
	}
	for _, i := range readIdxs {
		if err := s.checkRange("exchange read", i); err != nil {
			return nil, err
		}
	}
	if len(writeIdxs) > 0 {
		if err := s.commit(writeIdxs, writeData); err != nil {
			return nil, err
		}
	}
	return s.readSlotsTo(dst, readIdxs)
}

// Sync checkpoints the store: every committed batch becomes durable in the
// segment. Safe to call at any time; free when nothing was committed since
// the last checkpoint.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	return s.syncLocked()
}

// Close checkpoints, empties both logs so the next open replays nothing,
// and releases the store. It is idempotent; operations after Close return
// ErrClosed. A failed store is released as it is — its logs are what
// recovery needs — and Close reports the failure.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.failed
	if err == nil {
		err = s.syncLocked()
	}
	if err == nil {
		err = s.emptyLogs()
	}
	if cerr := s.closeFiles(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// emptyLogs durably empties both logs after a checkpoint. Order matters:
// the log about to be overwritten holds a chain older than the newest one,
// and if the newest vanished first a crash in between would leave that
// older chain the highest and recovery would replay it over newer slots. So
// the older log goes first. The newest goes durably too: the next open will
// start generation 1 at the head of log 0 whichever log that is, and must
// not find itself overwriting a chain the disk still holds.
func (s *Store) emptyLogs() error {
	for _, i := range []int{s.cur, 1 - s.cur} {
		if s.logSize[i] > walHeaderSize {
			if err := s.emptyLog(i); err != nil {
				return err
			}
		}
	}
	return nil
}
