package oram

import (
	"encoding/binary"
	"fmt"
	"slices"

	"oblivjoin/internal/xcrypto"
)

// Scan reads the tree back whole: payloads[key] is the block stored under
// key, a copy the caller owns, or nil for a key never written. It reads
// every stored bucket once, uploadChunk buckets a round in store order —
// the bound the tree's upload holds the client to — and the stash, treetop
// included, locally; a stash copy wins over a server copy, as in
// parseBucketInto. A write-back still queued rides the first round, so no
// bucket the scan reads holds a stale copy. The scan remaps nothing, moves
// no block and writes nothing of its own, so what the server sees — the
// rounds, the buckets each reads, and the queued write-back's paths — is a
// function of the tree's geometry and of how many paths are queued, which
// the number of accesses since the last settle fixes. It is the oblivious
// table scan of ObliDB and of Arasu & Kaushik.
func (o *PathORAM) Scan() ([][]byte, error) {
	if err := o.ensureUploaded(); err != nil {
		return nil, err
	}
	out := make([][]byte, o.cfg.Capacity)
	for key, e := range o.stash {
		out[key] = slices.Clone(e.payload)
	}
	s := o.sched
	stored := o.store.Len()
	stride := xcrypto.SealedLen(o.bucketSize)
	buf := make([]byte, 0, min(stored, uploadChunk)*int64(stride))
	nodes := make([]int64, 0, min(stored, uploadChunk))
	defer o.releaseKnown() // what the riding write-back placed is on the server
	for lo := int64(0); lo < stored; lo += uploadChunk {
		nodes = nodes[:0]
		for n := lo; n < min(lo+uploadChunk, stored); n++ {
			nodes = append(nodes, n)
		}
		if err := s.prepareRead(nodes, buf[:0], 1); err != nil {
			return nil, err
		}
		issueRound(&o.cfg, false, &s.op)
		if err := s.completeRead(); err != nil {
			return nil, err
		}
		if buf = s.op.Out; len(buf) != len(nodes)*stride {
			return nil, fmt.Errorf("oram: store %q returned %d bytes for %d buckets of %d", o.cfg.Name, len(buf), len(nodes), stride)
		}
		for k, node := range nodes {
			plain, err := o.cfg.Sealer.OpenTo(o.openBuf[:0], buf[k*stride:(k+1)*stride])
			if err != nil {
				return nil, fmt.Errorf("oram: store %q bucket %d: %w", o.cfg.Name, node, err)
			}
			o.openBuf = plain[:0]
			for slot := plain; len(slot) >= o.slotSize; slot = slot[o.slotSize:] {
				if slot[0] == 0 {
					continue
				}
				key := binary.LittleEndian.Uint64(slot[1:9])
				if key >= uint64(len(out)) {
					return nil, fmt.Errorf("oram: store %q bucket %d holds key %d, beyond capacity %d", o.cfg.Name, node, key, len(out))
				}
				if out[key] == nil {
					out[key] = slices.Clone(slot[slotHeader:o.slotSize])
				}
			}
		}
	}
	return out, nil
}
