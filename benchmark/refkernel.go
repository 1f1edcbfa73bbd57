package main

import (
	"crypto/aes"
	"crypto/cipher"
	"time"
)

// Every time the benchmark reports is wall clock as measured. This sandbox
// is a shared micro-VM whose cores move between faster and slower regimes
// over tens of seconds, so two runs of one commit can differ by more than a
// change does. To let a reader tell a slow machine from a slow program, the
// harness times a fixed reference kernel between the timed queries and prints
// how long it took (ref_kernel_us_*). The kernel uses the standard library
// only — AES-GCM and copy on 16 KiB buffers, the instruction mix of an ORAM
// path access, with no allocation — so no change to this repository moves
// it. It is information: no metric is scaled by it.

const (
	refBlock  = 16 << 10
	refBlocks = 128
)

// refKernel times reference passes. Not safe for concurrent use; every
// client of the closed loop owns one.
type refKernel struct {
	aead          cipher.AEAD
	plain, sealed []byte
	opened, nonce []byte
	passUS        []float64
}

func newRefKernel() *refKernel {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return &refKernel{
		aead:  aead,
		plain: make([]byte, refBlock), sealed: make([]byte, 0, refBlock+aead.Overhead()),
		opened: make([]byte, refBlock), nonce: make([]byte, aead.NonceSize()),
	}
}

// pass runs the kernel once and records how long it took.
func (k *refKernel) pass() {
	start := time.Now()
	for i := 0; i < refBlocks; i++ {
		ct := k.aead.Seal(k.sealed[:0], k.nonce, k.plain, nil)
		pt, err := k.aead.Open(k.opened[:0], k.nonce, ct, nil)
		if err != nil {
			panic(err)
		}
		copy(k.plain, pt)
	}
	k.passUS = append(k.passUS, us(time.Since(start)))
}
