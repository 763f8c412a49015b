// Package puzzle implements the HIP computational puzzle of RFC 5201
// §4.1.2: the responder challenges the initiator with (I, K); the
// initiator must find J such that the low K bits of
// SHA-256(I | HIT-I | HIT-R | J) are zero. Verification costs one hash;
// solving costs ~2^K hashes, letting a loaded responder shed work onto
// clients (the paper's DoS-protection argument, §IV-B).
package puzzle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net/netip"
)

// MaxK bounds accepted difficulty so a malicious responder cannot wedge an
// initiator (2^20 hashes ≈ tens of milliseconds).
const MaxK = 28

// ErrTooHard is returned when a puzzle's difficulty exceeds MaxK.
var ErrTooHard = errors.New("puzzle: difficulty above acceptable bound")

// ErrUnsolvable is returned when no solution is found within the attempt
// budget (practically impossible for sane K).
var ErrUnsolvable = errors.New("puzzle: no solution found")

// input lays out I | HIT-I | HIT-R | J with J left zero.
func input(i uint64, hitI, hitR netip.Addr) (buf [48]byte) {
	binary.BigEndian.PutUint64(buf[0:], i)
	a := hitI.As16()
	copy(buf[8:24], a[:])
	b := hitR.As16()
	copy(buf[24:40], b[:])
	return buf
}

// digest computes SHA-256(I | HIT-I | HIT-R | J).
func digest(i uint64, hitI, hitR netip.Addr, j uint64) [32]byte {
	buf := input(i, hitI, hitR)
	binary.BigEndian.PutUint64(buf[40:], j)
	return sha256.Sum256(buf[:])
}

// lowBitsZero reports whether the low k bits of sum are all zero
// (Ltrunc in RFC 5201 terms).
func lowBitsZero(sum [32]byte, k uint8) bool {
	bits := int(k)
	for i := len(sum) - 1; i >= 0 && bits > 0; i-- {
		take := bits
		if take > 8 {
			take = 8
		}
		mask := byte(1<<take - 1)
		if sum[i]&mask != 0 {
			return false
		}
		bits -= take
	}
	return true
}

// Solve finds J for the puzzle (i, k) between the two HITs, starting the
// search at seed (callers pass a random seed so concurrent solvers
// diverge). It returns the number of hash attempts alongside J. The
// input is laid out once and each attempt rewrites only J, through one
// reused hash.
func Solve(i uint64, k uint8, hitI, hitR netip.Addr, seed uint64) (j uint64, attempts uint64, err error) {
	if k > MaxK {
		return 0, 0, ErrTooHard
	}
	j = seed
	limit := uint64(1) << (uint(k) + 8) // generous margin over the 2^K mean
	if k == 0 {
		return j, 1, nil
	}
	buf := input(i, hitI, hitR)
	h := sha256.New()
	var sum [sha256.Size]byte
	for attempts = 1; attempts <= limit; attempts++ {
		binary.BigEndian.PutUint64(buf[40:], j)
		h.Reset()
		h.Write(buf[:])
		h.Sum(sum[:0])
		if lowBitsZero(sum, k) {
			return j, attempts, nil
		}
		j++
	}
	return 0, attempts, ErrUnsolvable
}

// Verify checks a claimed solution J in one hash.
func Verify(i uint64, k uint8, hitI, hitR netip.Addr, j uint64) bool {
	if k == 0 {
		return true
	}
	return lowBitsZero(digest(i, hitI, hitR, j), k)
}

// Difficulty is a load-adaptive controller for K: the responder raises
// difficulty as its handshake load grows, per the DoS design the paper
// inherits from HIP. hip.Host measures that load per initiator, as RFC
// 5201 §4.1.2 allows: the I1s the sending HIT has sent (a count decayed
// with a 1 s time constant, so about its I1s per second) plus the
// driver-reported count of control packets queued behind this one. An
// initiator that keeps coming back pays; a thousand that each connect once
// do not, unless they arrive faster than the responder serves them.
type Difficulty struct {
	// BaseK is the difficulty at or below LowWater load.
	BaseK uint8
	// MaxK caps the difficulty at HighWater load and above.
	MaxK uint8
	// LowWater / HighWater are load values (one initiator's I1s per
	// second plus the control backlog) between which K interpolates
	// linearly.
	LowWater, HighWater int
}

// DefaultDifficulty asks trivial puzzles of an initiator that sends about
// two I1s a second or fewer, and up to 2^16 work of one that sends eight a
// second, or of any initiator whose I1 has seven control packets queued
// behind it.
var DefaultDifficulty = Difficulty{BaseK: 1, MaxK: 16, LowWater: 2, HighWater: 8}

// K returns the difficulty for the given load.
func (d Difficulty) K(load int) uint8 {
	if d.HighWater <= d.LowWater {
		return d.BaseK
	}
	switch {
	case load <= d.LowWater:
		return d.BaseK
	case load >= d.HighWater:
		return d.MaxK
	}
	span := int(d.MaxK) - int(d.BaseK)
	frac := float64(load-d.LowWater) / float64(d.HighWater-d.LowWater)
	return d.BaseK + uint8(frac*float64(span)+0.5)
}
