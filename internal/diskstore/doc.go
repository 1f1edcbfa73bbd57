// Package diskstore is the persistent, crash-safe block store behind the
// untrusted server: a fixed-slot segment file per named store plus two
// alternating write-ahead logs that make every WriteMany/Exchange batch
// commit atomically.
//
// The paper's server is a MongoDB instance that persists the encrypted
// B-tree/ORAM blocks across sessions (Section 9.1); the simulated MemStore
// loses every tree on restart. This package implements the same
// storage.AppendExchangeStore interface against files, so cmd/ojoinserver
// -data-dir survives restarts: clients reconnect and rerun joins against the
// recovered trees with identical results and traffic.
//
// Layout (one store = three files, <escaped-name>.seg, .wal0 and .wal1):
//
//	segment: 4 KiB versioned header | slots × block[blockSize]
//	log:     16 B versioned header | records (see wal.go)
//
// Slots are bare: blocks arrive already sealed under AES-GCM, whose tag
// authenticates every byte end-to-end, so a per-slot checksum would
// duplicate that check (DESIGN.md §2.14). Torn in-place slot writes are
// caught by the log record CRC during replay, which is the only mechanism
// that can repair them anyway. A segment or log of any other format version
// is refused by name; nothing else was ever deployed.
//
// # Atomic batch commit
//
// A batch is appended to the current log as one CRC-covered record stamped
// with the log's generation and the running batch number, the log is
// fsynced (subject to the SyncEvery group-commit knob), and only then are
// the slots updated in place. When the log passes CheckpointBytes — or at
// Sync and Close — the store checkpoints: it fsyncs the segment, and the
// next generation starts at the head of the other log file, overwriting in
// place a generation two behind. Nothing is truncated and no log is fsynced
// for the checkpoint itself; three invariants make that one fsync enough:
//
//   - I1. A generation's first record is written only after a segment fsync
//     that followed the last slot write of every earlier generation. So the
//     mere existence of a generation-g record proves everything older is
//     durable in the segment: the record is the checkpoint's durable marker.
//   - I2. A new generation never overwrites the newest one. The two newest
//     generations always sit in different files, and the chain recovery may
//     need is never the one being written over.
//   - I3. A log is fsynced at least once during each generation it holds —
//     by the group commit as a rule, by the checkpoint itself for a
//     generation shorter than SyncEvery commits. So the chain of the
//     generation before the newest is durable from its first record, and a
//     power loss cannot make a still older chain the highest on disk.
//
// Recovery needs one rule. A log's chain is the run of CRC-valid records
// from its start that share one generation and carry consecutive batch
// numbers; recovery replays the chain with the highest generation, in
// order, and nothing else. Everything else in the logs is dead — the other
// log's chain (I1), a torn record, and whole CRC-valid records of an older
// generation that happen to sit aligned behind the live tail. Replay is
// idempotent (absolute slots, absolute contents) and reads the chain without
// changing it, so a crash during recovery costs nothing. Recovery then
// fsyncs the replayed log and the segment, durably empties the other log,
// and starts the next generation there. Emptying is what keeps a lost
// timeline lost: a power loss can drop a generation's first record and keep
// a later one, the next recovery issues that generation number again in
// that file, and a survivor must not line up behind the new first record.
// And recovery trusts no log it has not itself fsynced — one it finds empty
// is fsynced all the same, because a process that died inside Close leaves
// its truncate in the page cache and the chain on the disk.
//
// A dead log is otherwise overwritten in place, never truncated. The one
// exception is a log more than twice CheckpointBytes long, which a bulk-load
// record overshot and would pin on disk forever: it is emptied when its turn
// comes again. (Every generation ends just past CheckpointBytes, so a
// threshold of CheckpointBytes itself would truncate at every checkpoint.)
//
// Sync and Close are the explicit durability points and pay for it: they
// fsync the log holding the unsynced records before checkpointing, and
// Close then durably empties the older log and only then the newest (the
// reverse would, for a moment, leave the older chain the highest), so a
// clean restart replays nothing. With nothing committed since the last
// checkpoint both are free.
//
// # Failure model
//
//	                 SyncEvery = 1                SyncEvery = k > 1
//	process crash    every batch atomic; every    every batch atomic; every
//	                 acknowledged batch kept      acknowledged batch kept
//	power loss       every batch atomic; every    all but the last k-1
//	                 acknowledged batch kept      acknowledged batches atomic
//	                                              and kept; those k-1 may be
//	                                              lost or torn
//
// A process crash leaves every completed write in the kernel, so replaying
// the newest chain restores a batch boundary whatever SyncEvery is. Under
// power loss unsynced writes reach the disk in any subset: with k > 1 a
// segment page of batch n can land while batch n's record does not, and
// nothing can then make that batch whole — group commit trades exactly
// this. The damage is bounded to batches the log fsync had not yet covered,
// and nothing behind a returned Sync, Close or OpenStore is ever at risk.
//
// An I/O error on a mutating path (append, fsync, slot write, truncate)
// fails the store: the files may hold half of what the caller was just told
// failed, so every later operation, reads included, returns that first
// error until the store is reopened and recovery has made the batch whole
// or absent.
//
// # Concurrency contract
//
// A Store serializes all operations on itself with one mutex — batches are
// atomic with respect to each other by construction, matching MemStore's
// semantics. Distinct stores (distinct files) are independent; the serving
// layer above (internal/session's broker) is what serializes rival clients
// onto one store. The files behind a store must not be shared between two
// live Store instances.
//
// # Obliviousness
//
// The store is index-faithful: it touches exactly the slots the (already
// public) access sequence names, adds no data-dependent I/O, and its log
// records are a deterministic function of the request. Persistence
// therefore leaks nothing beyond the access pattern the client already
// reveals, which the ORAM layer above has randomized (DESIGN.md §2.10).
package diskstore
