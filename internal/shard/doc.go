// Package shard is the client-side fan-out router that partitions one
// logical block store over N independent block servers — the step from one
// ojoinserver box toward Jodes-style distributed scale (PAPERS.md).
//
// A Router implements storage.AppendExchangeStore over N sub-stores. Global
// block index i lives on shard i mod N at local index i div N (ShardOf /
// LocalIndex), a striping that is a pure function of the index and the
// shard count. A Router is storage.Striped: each batch is split by that
// function into one sub-share per owning shard, the sub-shares travel as
// one round (storage.DoRound) — in a round of several stores, every
// sub-share for one shard server in that server's one frame — and the
// replies are merged back position by position into one logical response.
// A Pool owns the per-shard transports
// and hands out Routers through the storage.Opener seam, so the ORAM
// layer, the table layer, and the deferred-eviction scheduler run over
// shards without modification.
//
// # Obliviousness invariant
//
// The shard assignment depends only on the block index and the (public)
// shard count — never on block contents, keys, or the position map. Every
// per-shard trace is therefore exactly the image of the proven
// single-server trace under the projection i ↦ (i mod N, i div N): the
// adversary observing shard s sees the subsequence of the global trace
// with index ≡ s (mod N), re-numbered, and nothing else. A coalition of
// all N shards can reassemble precisely the single-server trace that
// Definition 1 already bounds; any subset sees a fixed projection of it
// (DESIGN.md §2.12). The Router meters each logical batch as ONE network
// round with its global indices, so round counts, traces, and the
// tracecheck suite are identical with 1 or N shards; per-shard request
// counts are exposed separately through Stats.
//
// # Concurrency contract
//
// A Router is safe for concurrent use exactly when its sub-stores are
// (remote.Client and storage.MemStore both are): it holds no mutable state
// of its own besides atomic per-shard counters. It starts no goroutine: a
// batch is split, sent and joined on the calling goroutine, so each shard
// receives the sub-shares of a round in the round's order, and the shards'
// requests of one round overlap on the wire because every frame is sent
// before any reply is awaited.
//
// # Failure atomicity
//
// A batch is validated in full — range and payload sizes, using the global
// geometry — before anything is sent, so a malformed batch touches no
// shard. Once sent, each sub-batch commits or fails atomically on its
// own shard (every backend validates a whole batch before applying it, and
// the disk backend's WAL makes application all-or-nothing); a transport
// failure on one shard therefore never leaves THAT shard partially
// written, though sibling shards may have committed their sub-batches. That
// cross-shard partiality is safe for the same reason client retries are:
// block writes carry absolute indices and absolute contents, and the ORAM
// scheduler commits its stash/pending state only after the whole router
// call succeeds, so a retry re-issues the identical sub-batches
// (DESIGN.md §2.12).
package shard
