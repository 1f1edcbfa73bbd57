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
	walSuffix = ".wal"

	segMagic = 0x4F4A5347 // "OJSG"
	// segVersionCRC (v1) prefixes every slot with a CRC32-C of its contents.
	// That predates the authenticated sealer: blocks are AEAD-sealed before
	// they reach the store, so the per-slot checksum duplicated the GCM tag's
	// integrity check at 4 bytes and one CRC pass per transfer. segVersion
	// (v2) stores bare slots; torn in-place writes are still caught, by the
	// WAL record CRC during replay (the only path that repairs them anyway).
	// v1 segments remain fully readable and writable.
	segVersionCRC = 1
	segVersion    = 2
	segHeaderSize = 4096
	maxNameLen    = 4000

	defaultCheckpointBytes = 1 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("diskstore: store is closed")

// Options configures a Store (and every store a Dir opens).
type Options struct {
	// SyncEvery fsyncs the WAL every Nth batch commit (group commit).
	// Values <= 1 fsync on every commit: a batch is durable the moment the
	// call returns. Larger values amortize the fsync across up to N batches
	// and may lose — but by the WAL-before-data rule never tear — the most
	// recent unsynced batches on a whole-machine crash.
	SyncEvery int
	// CheckpointBytes bounds the WAL: when it grows past this, the segment
	// is fsynced and the log truncated. 0 means 1 MiB.
	CheckpointBytes int64
	// Meter, when non-nil, receives the same traffic accounting a MemStore
	// reports — used when the disk store backs an in-process benchmark.
	Meter *storage.Meter
	// FS substitutes the filesystem; nil means the operating system. Tests
	// inject a CrashFS to kill the store at exact operation boundaries.
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
	// WALFsyncs and SegFsyncs count fsync calls per file.
	WALFsyncs, SegFsyncs int64
	// Checkpoints counts WAL truncations after a segment fsync.
	Checkpoints int64
	// Recoveries counts opens that found a non-empty log (unclean
	// shutdown); RecoveredRecords the complete records replayed;
	// TornTailBytes the incomplete tail bytes discarded.
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

// Store is one named, file-backed block store. It implements storage.Store,
// storage.BatchStore, and storage.ExchangeStore with the same semantics as
// MemStore — batches apply in order, so duplicate indices resolve
// last-writer-wins both live and through WAL replay — plus Close/Sync
// lifecycle and crash recovery. It is safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	name      string
	slots     int64
	blockSize int
	ver       uint32
	slotSize  int
	zeroCRC   uint32
	seg, wal  File
	opts      Options
	walSize   int64
	seq       uint64
	unsynced  int
	closed    bool
	stats     Stats
	// fsyncHist records WAL fsync durations on the commit and checkpoint
	// paths — the durability component of server-side op latency
	// (DESIGN.md §2.13).
	fsyncHist *telemetry.Histogram
}

var _ storage.AppendExchangeStore = (*Store)(nil)

// OpenStore opens or creates the store persisted at basePath+".seg" /
// basePath+".wal". Creating requires positive slots and blockSize; opening
// an existing store reads the geometry from the segment header and, when
// slots/blockSize/name are non-zero, verifies they match. Opening replays
// the WAL: complete records are applied to the segment, a torn tail is
// discarded, and the log is checkpointed, so the returned store always
// reflects exactly the batches that committed before the last shutdown or
// crash.
func OpenStore(basePath, name string, slots int64, blockSize int, opts Options) (*Store, error) {
	fs := opts.fs()
	seg, err := fs.OpenFile(basePath+segSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: open segment: %w", err)
	}
	s := &Store{name: name, slots: slots, blockSize: blockSize, opts: opts, seg: seg,
		fsyncHist: telemetry.NewHistogram()}
	size, err := seg.Size()
	if err == nil {
		if size == 0 {
			err = s.create()
		} else {
			err = s.openExisting()
		}
	}
	if err != nil {
		seg.Close()
		return nil, err
	}
	wal, err := fs.OpenFile(basePath+walSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		seg.Close()
		return nil, fmt.Errorf("diskstore: open wal: %w", err)
	}
	s.wal = wal
	if err := s.recover(); err != nil {
		seg.Close()
		wal.Close()
		return nil, err
	}
	return s, nil
}

// initGeom derives the slot layout from the segment version: v1 slots carry
// a 4-byte CRC32-C prefix (all-zero slots validate against the XORed zero
// CRC), v2 slots are the bare block.
func (s *Store) initGeom() {
	if s.ver == segVersionCRC {
		s.slotSize = 4 + s.blockSize
		s.zeroCRC = crc32.Checksum(make([]byte, s.blockSize), crcTable)
	} else {
		s.slotSize = s.blockSize
	}
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
	s.ver = segVersion
	s.initGeom()
	hdr := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], s.ver)
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
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("diskstore: sync segment: %w", err)
	}
	s.stats.SegFsyncs++
	return nil
}

// openExisting validates the header and fills in (or checks) the geometry.
// A header that fails its CRC refuses to open: it means either real
// corruption or a crash during creation, and since creation syncs the
// header before acknowledging, no committed data can live behind a bad
// header — delete the .seg/.wal pair to recreate.
func (s *Store) openExisting() error {
	hdr := make([]byte, segHeaderSize)
	if _, err := s.seg.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("diskstore: read segment header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != segMagic {
		return fmt.Errorf("diskstore: bad segment magic %#x", m)
	}
	v := binary.LittleEndian.Uint32(hdr[4:8])
	if v != segVersionCRC && v != segVersion {
		return fmt.Errorf("diskstore: unsupported segment version %d", v)
	}
	s.ver = v
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
	s.initGeom()
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
	return segHeaderSize + s.slots*int64(s.slotSize)
}

// recover replays the WAL into the segment. Complete records re-apply in
// order (idempotent: absolute slots, absolute contents); the first torn or
// corrupt record ends the committed prefix and the tail is discarded. The
// log is then checkpointed so a second crash cannot replay stale records
// over newer commits.
func (s *Store) recover() error {
	size, err := s.wal.Size()
	if err != nil {
		return err
	}
	if size < walHeaderSize {
		// Fresh log (or one whose creation never completed — in which case
		// no record was ever appended, let alone acknowledged).
		return s.resetWAL()
	}
	buf := make([]byte, size)
	if _, err := s.wal.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("diskstore: read wal: %w", err)
	}
	if err := parseWALHeader(buf, s.blockSize); err != nil {
		return err
	}
	off := walHeaderSize
	replayed := 0
	for off < len(buf) {
		rec, n, err := parseWALRecord(buf[off:], s.blockSize, s.slots)
		if err != nil {
			s.stats.TornTailBytes += int64(len(buf) - off)
			break
		}
		for k, i := range rec.Idxs {
			if err := s.writeSlot(i, rec.Data[k]); err != nil {
				return err
			}
		}
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		off += n
		replayed++
	}
	s.walSize = size
	if off < int(size) || replayed > 0 {
		s.stats.Recoveries++
		s.stats.RecoveredRecords += int64(replayed)
		return s.checkpointLocked()
	}
	return nil
}

// resetWAL truncates the log to an empty, headered state.
func (s *Store) resetWAL() error {
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("diskstore: truncate wal: %w", err)
	}
	if _, err := s.wal.WriteAt(appendWALHeader(nil, s.blockSize), 0); err != nil {
		return fmt.Errorf("diskstore: write wal header: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("diskstore: sync wal: %w", err)
	}
	s.stats.WALFsyncs++
	s.walSize = walHeaderSize
	s.unsynced = 0
	return nil
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

// FsyncHistogram snapshots the serving-path WAL fsync latency histogram.
func (s *Store) FsyncHistogram() telemetry.HistogramSnapshot {
	return s.fsyncHist.Snapshot()
}

func (s *Store) slotOff(i int64) int64 {
	return segHeaderSize + i*int64(s.slotSize)
}

// readSlotTo appends slot i's block to dst, reading straight into dst's
// spare capacity (checksum-verified on v1 segments). Callers hold s.mu.
func (s *Store) readSlotTo(dst []byte, i int64) ([]byte, error) {
	off := len(dst)
	dst = slices.Grow(dst, s.slotSize)[:off+s.slotSize]
	buf := dst[off:]
	if _, err := s.seg.ReadAt(buf, s.slotOff(i)); err != nil {
		return nil, fmt.Errorf("diskstore: read slot %d (%s): %w", i, s.name, err)
	}
	if s.ver == segVersionCRC {
		stored := binary.LittleEndian.Uint32(buf[:4])
		if got := crc32.Checksum(buf[4:], crcTable) ^ s.zeroCRC; got != stored {
			return nil, fmt.Errorf("%w: slot %d of %s (crc %#x, want %#x)", ErrCorrupt, i, s.name, got, stored)
		}
		copy(buf, buf[4:])
		dst = dst[:off+s.blockSize]
	}
	s.stats.BlocksRead++
	return dst, nil
}

// readSlotsTo appends the (already range-checked) slots to dst, growing it
// at most once. Callers hold s.mu.
func (s *Store) readSlotsTo(dst []byte, idxs []int64) ([]byte, error) {
	dst = slices.Grow(dst, len(idxs)*s.slotSize)
	for _, i := range idxs {
		var err error
		if dst, err = s.readSlotTo(dst, i); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// writeSlot writes one slot (checksum-prefixed on v1 segments). Callers hold
// s.mu and guarantee len(data) == blockSize.
func (s *Store) writeSlot(i int64, data []byte) error {
	if s.ver == segVersionCRC {
		buf := make([]byte, s.slotSize)
		binary.LittleEndian.PutUint32(buf[:4], crc32.Checksum(data, crcTable)^s.zeroCRC)
		copy(buf[4:], data)
		data = buf
	}
	if _, err := s.seg.WriteAt(data, s.slotOff(i)); err != nil {
		return fmt.Errorf("diskstore: write slot %d (%s): %w", i, s.name, err)
	}
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

func (s *Store) checkBlock(op string, data []byte) error {
	if len(data) != s.blockSize {
		return fmt.Errorf("diskstore: %s of %d bytes to %d-byte block (%s)", op, len(data), s.blockSize, s.name)
	}
	return nil
}

// commit runs the atomic batch protocol: append one WAL record, fsync per
// the group-commit knob, apply the slots in order (duplicate indices:
// last-writer-wins, matching replay), maybe checkpoint. Callers hold s.mu
// and have validated every index and payload — a record must never carry an
// index its own replay would reject.
func (s *Store) commit(idxs []int64, data [][]byte) error {
	if s.closed {
		return ErrClosed
	}
	s.seq++
	rec := appendWALRecord(make([]byte, 0, recordLen(len(idxs), s.blockSize)), s.seq, idxs, data, s.blockSize)
	if _, err := s.wal.WriteAt(rec, s.walSize); err != nil {
		return fmt.Errorf("diskstore: wal append (%s): %w", s.name, err)
	}
	s.walSize += int64(len(rec))
	s.stats.WALRecords++
	s.stats.WALBytes += int64(len(rec))
	s.unsynced++
	if s.unsynced >= s.opts.syncEvery() {
		fsyncStart := time.Now()
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("diskstore: wal sync (%s): %w", s.name, err)
		}
		s.fsyncHist.Observe(time.Since(fsyncStart))
		s.stats.WALFsyncs++
		s.unsynced = 0
	}
	for k, i := range idxs {
		if err := s.writeSlot(i, data[k]); err != nil {
			return err
		}
	}
	s.stats.BlocksWritten += int64(len(idxs))
	if s.walSize >= s.opts.checkpointBytes() {
		return s.checkpointLocked()
	}
	return nil
}

// checkpointLocked makes the segment durable and empties the log. Ordering
// matters: the segment fsync must complete before the log truncates, or a
// crash in between could lose committed batches that only the (now gone)
// log could replay.
func (s *Store) checkpointLocked() error {
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("diskstore: segment sync (%s): %w", s.name, err)
	}
	s.stats.SegFsyncs++
	if err := s.wal.Truncate(walHeaderSize); err != nil {
		return fmt.Errorf("diskstore: wal truncate (%s): %w", s.name, err)
	}
	s.walSize = walHeaderSize
	fsyncStart := time.Now()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("diskstore: wal sync (%s): %w", s.name, err)
	}
	s.fsyncHist.Observe(time.Since(fsyncStart))
	s.stats.WALFsyncs++
	s.stats.Checkpoints++
	s.unsynced = 0
	return nil
}

// Read implements storage.Store. The returned slice is a copy.
func (s *Store) Read(i int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.checkRange("read", i); err != nil {
		return nil, err
	}
	blk, err := s.readSlotTo(nil, i)
	if err != nil {
		return nil, err
	}
	if m := s.opts.Meter; m != nil {
		m.CountBatch(s.name, storage.KindRead, []int64{i}, s.blockSize)
	}
	return blk, nil
}

// Write implements storage.Store. Even a single-block write goes through
// the WAL: an in-place slot update could tear mid-block, and only the log
// (whose record CRC detects its own torn tail) can repair it to a whole
// value on replay.
func (s *Store) Write(i int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.checkRange("write", i); err != nil {
		return err
	}
	if err := s.checkBlock("write", data); err != nil {
		return err
	}
	if err := s.commit([]int64{i}, [][]byte{data}); err != nil {
		return err
	}
	if m := s.opts.Meter; m != nil {
		m.CountBatch(s.name, storage.KindWrite, []int64{i}, s.blockSize)
	}
	return nil
}

// ReadMany implements storage.BatchStore: ReadManyTo into fresh memory,
// carved.
func (s *Store) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := s.ReadManyTo(nil, idxs)
	return storage.Carve(flat, s.blockSize), err
}

// ReadManyTo implements storage.AppendStore.
func (s *Store) ReadManyTo(dst []byte, idxs []int64) ([]byte, error) {
	if len(idxs) == 0 {
		return dst, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	for _, i := range idxs {
		if err := s.checkRange("batch read", i); err != nil {
			return nil, err
		}
	}
	dst, err := s.readSlotsTo(dst, idxs)
	if err != nil {
		return nil, err
	}
	if m := s.opts.Meter; m != nil {
		m.CountBatch(s.name, storage.KindRead, idxs, s.blockSize)
	}
	return dst, nil
}

// WriteMany implements storage.BatchStore: the whole batch commits
// atomically through one WAL record — after a crash, every block holds
// either its pre-batch or post-batch value consistently across the batch.
func (s *Store) WriteMany(idxs []int64, data [][]byte) error {
	if len(idxs) != len(data) {
		return fmt.Errorf("diskstore: batch write of %d blocks with %d payloads (%s)", len(idxs), len(data), s.name)
	}
	if len(idxs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for k, i := range idxs {
		if err := s.checkRange("batch write", i); err != nil {
			return err
		}
		if err := s.checkBlock("batch write", data[k]); err != nil {
			return err
		}
	}
	if err := s.commit(idxs, data); err != nil {
		return err
	}
	if m := s.opts.Meter; m != nil {
		m.CountBatch(s.name, storage.KindWrite, idxs, s.blockSize)
	}
	return nil
}

// Exchange implements storage.ExchangeStore: ExchangeTo into fresh memory,
// carved.
func (s *Store) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	flat, err := s.ExchangeTo(nil, writeIdxs, writeData, readIdxs)
	return storage.Carve(flat, s.blockSize), err
}

// ExchangeTo implements storage.AppendExchangeStore: the writes commit as
// one atomic WAL record, then the reads are served, all under one lock so
// the reads observe the freshly written blocks.
func (s *Store) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) != len(writeData) {
		return nil, fmt.Errorf("diskstore: exchange of %d write blocks with %d payloads (%s)", len(writeIdxs), len(writeData), s.name)
	}
	if len(writeIdxs) == 0 && len(readIdxs) == 0 {
		return dst, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	for k, i := range writeIdxs {
		if err := s.checkRange("exchange write", i); err != nil {
			return nil, err
		}
		if err := s.checkBlock("exchange write", writeData[k]); err != nil {
			return nil, err
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
	dst, err := s.readSlotsTo(dst, readIdxs)
	if err != nil {
		return nil, err
	}
	if m := s.opts.Meter; m != nil {
		m.CountExchange(s.name, writeIdxs, readIdxs, s.blockSize)
	}
	return dst, nil
}

// Sync checkpoints the store: every committed batch becomes durable and the
// WAL empties. Safe to call at any time.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.checkpointLocked()
}

// Close checkpoints and releases the store. It is idempotent; operations
// after Close return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.checkpointLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}
