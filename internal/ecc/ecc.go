// Package ecc implements triple modular redundancy (TMR), the error
// correction scheme Section 5.4.5 of the Ambit paper identifies as the only
// known ECC that is *homomorphic over all bitwise operations*:
//
//	ECC(A op B) = ECC(A) op ECC(B)
//
// Conventional SECDED ECC breaks under Ambit because the device computes on
// data without the controller re-encoding it.  With TMR, each logical row is
// stored as three replicas; applying a bulk bitwise operation to the three
// replica pairs independently yields exactly the TMR encoding of the
// result, so in-DRAM computation and error correction compose.  Decoding is
// a bitwise majority vote — the very operation Ambit's triple-row activation
// implements natively.
//
// The paper leaves TMR evaluation to future work; this package provides the
// encoder/decoder, the homomorphism and correction guarantees (tested), and
// cost accounting (3x capacity, 3x operations).
package ecc

import (
	"fmt"
	"math/bits"

	"ambit/internal/controller"
)

// Replicas is the TMR replication factor.
const Replicas = 3

// CapacityOverhead is the storage multiplier TMR imposes.
const CapacityOverhead = Replicas

// OperationOverhead is the bulk-operation multiplier TMR imposes (each op
// runs once per replica).
const OperationOverhead = Replicas

// Codeword is a TMR-encoded data block.
type Codeword struct {
	replicas [Replicas][]uint64
}

// Encode produces the TMR codeword of data (three independent copies).
func Encode(data []uint64) *Codeword {
	var c Codeword
	for i := range c.replicas {
		c.replicas[i] = append([]uint64(nil), data...)
	}
	return &c
}

// Len returns the data length in words.
func (c *Codeword) Len() int { return len(c.replicas[0]) }

// Replica returns a copy of replica i (for storing into DRAM rows).
func (c *Codeword) Replica(i int) []uint64 {
	return append([]uint64(nil), c.replicas[i]...)
}

// FromReplicas reassembles a codeword from three equally sized word slices
// (e.g. rows read back from DRAM).
func FromReplicas(r0, r1, r2 []uint64) (*Codeword, error) {
	if len(r0) != len(r1) || len(r0) != len(r2) {
		return nil, fmt.Errorf("ecc: replica lengths differ (%d/%d/%d)", len(r0), len(r1), len(r2))
	}
	var c Codeword
	c.replicas[0] = append([]uint64(nil), r0...)
	c.replicas[1] = append([]uint64(nil), r1...)
	c.replicas[2] = append([]uint64(nil), r2...)
	return &c, nil
}

// Decode majority-votes the replicas, returning the corrected data and the
// number of corrected bits.  Any single-replica fault per bit position is
// corrected; matching faults in two replicas are miscorrected silently (the
// fundamental TMR limit).
func (c *Codeword) Decode() (data []uint64, correctedBits int) {
	data = make([]uint64, c.Len())
	return data, vote(data, c.replicas[0], c.replicas[1], c.replicas[2])
}

// vote writes the bitwise majority of three equally long replicas into dst,
// which may alias any of them, and returns the number of replica bits that
// disagree with it.  At most one replica disagrees at any bit position, so
// that count is the number of positions where the replicas are not all
// equal.
func vote(dst, r0, r1, r2 []uint64) int {
	r1, r2, dst = r1[:len(r0)], r2[:len(r0)], dst[:len(r0)]
	bad := 0
	for w, a := range r0 {
		b, d := r1[w], r2[w]
		bad += bits.OnesCount64((a ^ b) | (b ^ d))
		dst[w] = a&b | b&d | d&a
	}
	return bad
}

// VoteRows majority-decodes three replica rows into dst, which may alias any
// of them, and returns the number of replica bits that disagreed with the
// majority, allocating nothing.  It is the vote function the controller's
// execute-verify-retry path (controller.ExecuteOpReliable) consumes — passed
// in as a value because ecc depends on controller for the Op type, so
// controller cannot import ecc.
func VoteRows(dst, r0, r1, r2 []uint64) (int, error) {
	if len(r0) != len(r1) || len(r0) != len(r2) || len(dst) != len(r0) {
		return 0, fmt.Errorf("ecc: replica lengths differ (%d/%d/%d, dst %d)", len(r0), len(r1), len(r2), len(dst))
	}
	return vote(dst, r0, r1, r2), nil
}

// Healthy reports whether all replicas agree (no latent faults).
func (c *Codeword) Healthy() bool {
	for w := 0; w < c.Len(); w++ {
		if c.replicas[0][w] != c.replicas[1][w] || c.replicas[1][w] != c.replicas[2][w] {
			return false
		}
	}
	return true
}

// Scrub rewrites every replica with the majority value, clearing
// correctable faults; it returns the number of corrected bits.
func (c *Codeword) Scrub() int {
	data, corrected := c.Decode()
	for i := range c.replicas {
		copy(c.replicas[i], data)
	}
	return corrected
}

// InjectFault XORs mask into word w of replica r (test/fault-injection
// hook, mirroring dram.Subarray.InjectTRAFault).
func (c *Codeword) InjectFault(r, w int, mask uint64) error {
	if r < 0 || r >= Replicas {
		return fmt.Errorf("ecc: replica %d out of range", r)
	}
	if w < 0 || w >= c.Len() {
		return fmt.Errorf("ecc: word %d out of range", w)
	}
	c.replicas[r][w] ^= mask
	return nil
}

// Apply computes op replica-wise: the homomorphism property means the result
// is exactly the TMR encoding of op(a, b).  For unary ops b may be nil.
func Apply(op controller.Op, a, b *Codeword) (*Codeword, error) {
	if a == nil || (!op.Unary() && b == nil) {
		return nil, fmt.Errorf("ecc: nil operand for %v", op)
	}
	if !op.Unary() && a.Len() != b.Len() {
		return nil, fmt.Errorf("ecc: length mismatch %d vs %d", a.Len(), b.Len())
	}
	var out Codeword
	for r := 0; r < Replicas; r++ {
		words := make([]uint64, a.Len())
		for w := range words {
			var bw uint64
			if b != nil {
				bw = b.replicas[r][w]
			}
			words[w] = op.Eval(a.replicas[r][w], bw)
		}
		out.replicas[r] = words
	}
	return &out, nil
}
