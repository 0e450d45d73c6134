package sched

// Fuzz obligations of the fingerprint layer. The dedup and symmetry engines
// treat equal sums as equal states, so the properties fuzzed here are the
// ones a bad refactor of the hashing code would silently break:
//
//   - Mix must stay a bijection on 64-bit words — the commutative multiset
//     fold (sum of Mix-ed element digests) loses no element information.
//   - Each lane's Word round must stay a bijection of the lane for a fixed
//     word — two states that differ never merge on the next word.
//   - Orbit lane digests must be permutation-invariant, and root folds must
//     stay order-sensitive and distinct from lane folds.
//   - The length-prefixed String fold must keep differently-split
//     concatenations apart, and Value's type tags must keep same-bits
//     values of different types apart.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"
)

// invOdd returns the multiplicative inverse of odd m modulo 2^64 by Newton
// iteration (x_{k+1} = x_k·(2 − m·x_k) doubles the correct low bits each
// round; five rounds from x=m cover 64 bits).
func invOdd(m uint64) uint64 {
	x := m
	for i := 0; i < 5; i++ {
		x *= 2 - m*x
	}
	return x
}

// unmix inverts Mix step by step: each xor-shift is undone by reapplying it
// cascade-style and each multiplication by the modular inverse.
func unmix(z uint64) uint64 {
	z ^= z >> 32
	z *= invOdd(fpM2)
	z ^= z >> 29
	z ^= z >> 58
	z *= invOdd(fpM1)
	z ^= z >> 33
	return z
}

// unroundA and unroundB invert lane a's and lane b's Word round for the
// folded word v: the odd multiply by its modular inverse, the rotation by
// the opposite rotation, the added word term by subtraction.
func unroundA(z, v uint64) uint64 {
	return bits.RotateLeft64(z*invOdd(fpP1), -31) - (v*fpP2 ^ fpP5)
}

func unroundB(z, v uint64) uint64 {
	return bits.RotateLeft64(z*invOdd(fpP3), -27) - (v*fpP4 ^ fpGolden)
}

// fuzzWords splits the input into 64-bit words (little-endian, zero-padded
// tail) so byte-level fuzz input drives word-level folds.
func fuzzWords(data []byte) []uint64 {
	words := make([]uint64, 0, len(data)/8+1)
	for len(data) >= 8 {
		words = append(words, binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	if len(data) > 0 {
		var tail [8]byte
		copy(tail[:], data)
		words = append(words, binary.LittleEndian.Uint64(tail[:]))
	}
	return words
}

func FuzzFP(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte("store buffering"), uint8(3))
	f.Add([]byte{0xff, 0x51, 0xaf, 0xd7, 0xed, 0x55, 0x8c, 0xcd, 1, 2, 3}, uint8(7))
	f.Add(binary.LittleEndian.AppendUint64(nil, fpGolden), uint8(254))
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		words := fuzzWords(data)

		// Mix bijectivity: unmix recovers every word exactly.
		for _, w := range words {
			if got := unmix(Mix(w)); got != w {
				t.Fatalf("unmix(Mix(%#x)) = %#x", w, got)
			}
		}

		// Round bijectivity: along the fold of the input, and from the state
		// the input spells when read as a lane pair, each lane's previous
		// state is recovered from the next one and the word.
		var h FP
		for i, w := range words {
			if i+1 < len(words) {
				h2 := FP{a: words[i], b: words[i+1]}
				h2.Word(w)
				if unroundA(h2.a, w) != words[i] || unroundB(h2.b, w) != words[i+1] {
					t.Fatalf("round of %#x from (%#x, %#x) not inverted", w, words[i], words[i+1])
				}
			}
			prev := h
			h.Word(w)
			if a, b := unroundA(h.a, w), unroundB(h.b, w); a != prev.a || b != prev.b {
				t.Fatalf("round of %#x: unround gives (%#x, %#x), want (%#x, %#x)", w, a, b, prev.a, prev.b)
			}
		}

		// Lane permutation invariance: rotating which lane receives which
		// content leaves the orbit sum unchanged; folding one extra word
		// into the root (order-sensitive territory) changes it.
		n := 2 + int(rot)%6
		shift := 1 + int(rot)%(n-1)
		a := NewOrbitFP(n, nil)
		b := NewOrbitFP(n, nil)
		for i, w := range words {
			a.Lane(ProcID(i % n)).Word(w)
			b.Lane(ProcID((i%n + shift) % n)).Word(w)
		}
		if a.Sum() != b.Sum() {
			t.Fatalf("rotating lane contents by %d (of %d) changed the orbit sum", shift, n)
		}
		a.Word(fpGolden)
		if a.Sum() == b.Sum() {
			t.Fatalf("root fold did not reach the orbit sum")
		}

		// Split separation: every way of folding the input as two strings
		// yields a distinct sum (the length prefix keeps concatenation
		// boundaries in the digest). Every cut folds the whole string, so
		// the check reads at most the first 256 bytes: on the megabyte
		// inputs the fuzzer grows, a quadratic loop stalls the worker.
		s := string(data[:min(len(data), 256)])
		seen := make(map[Fingerprint]int, len(s)+1)
		for cut := 0; cut <= len(s); cut++ {
			var h FP
			h.String(s[:cut])
			h.String(s[cut:])
			sum := h.Sum()
			if prev, dup := seen[sum]; dup {
				t.Fatalf("splits at %d and %d of %q collide", prev, cut, s)
			}
			seen[sum] = cut
		}

		// Type-tag separation: the same bits folded as int, uint64 and
		// decimal string stay pairwise distinct.
		if len(words) > 0 {
			w := words[0]
			var hi, hu, hs FP
			hi.Value(int(w))
			hu.Value(w)
			hs.Value(fmt.Sprintf("%d", w))
			if hi.Sum() == hu.Sum() || hi.Sum() == hs.Sum() || hu.Sum() == hs.Sum() {
				t.Fatalf("type tags collapsed for %#x: int %v, uint64 %v, string %v",
					w, hi.Sum(), hu.Sum(), hs.Sum())
			}
		}
	})
}
