//go:build !race

package sched

// Hash-quality battery of the fingerprint fold. The engines treat equal
// Fingerprints as equal states, and Word is a cheap round that leaves the
// avalanche to Sum, so the statistical obligations are checked directly on
// the kind of input the engines fold — long runs of tiny words:
//
//   - 2^24 structured 12-word sequences from small alphabets (small ints,
//     labels, bools, packed control words) give zero 64-bit collisions on
//     Sum's Lo and Hi, on a plain FP and through orbit lanes, and zero
//     collisions on each raw lane of the plain FP: the two lanes are each a
//     full 64-bit digest, which is what makes the pair 128 bits strong.
//   - Truncated to their top 32 bits, Lo and Hi collide within 5% of the
//     birthday expectation.
//   - Flipping any one input bit of an 8-word sequence flips Sum's bits
//     with an average probability within [0.48, 0.52].
//
// The battery is built !race: it is single-goroutine arithmetic, which the
// race detector would only slow down about eightfold (`make fp-quality` runs
// it apart from `make test`).

import (
	"math/bits"
	"slices"
	"testing"
	"time"
)

// qualityAlphabets returns the word alphabet of each position of the
// structured sequences: positions cycle through small ints (4), labels (4),
// bools (2) and packed control words (8), so three cycles — 12 words —
// enumerate exactly 2^24 sequences. The words are the ones Int, Label, Bool
// and ControlPoints fold.
func qualityAlphabets() [][]uint64 {
	var ctl []uint64
	for _, l := range []Label{LabelStart, 2} {
		for _, crashed := range []bool{false, true} {
			for _, steps := range []int{0, 1} {
				w, _ := controlWord(l, false, crashed, steps)
				ctl = append(ctl, w)
			}
		}
	}
	cycle := [][]uint64{
		{0, 1, 2, 3},
		{uint64(LabelNone), uint64(LabelStart), 2, 3},
		{0, 1},
		ctl,
	}
	var alpha [][]uint64
	for range 3 {
		alpha = append(alpha, cycle...)
	}
	return alpha
}

// enumerate folds every sequence of alpha depth-first, word pos into
// lane(pos), and calls leaf once per sequence with all its words folded.
// Each prefix is folded once: a position restores its lane after each word.
func enumerate(alpha [][]uint64, lane func(pos int) *FP, leaf func()) {
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(alpha) {
			leaf()
			return
		}
		ln := lane(pos)
		saved := *ln
		for _, w := range alpha[pos] {
			ln.Word(w)
			rec(pos + 1)
			*ln = saved
		}
	}
	rec(0)
}

// collisions reports whether vs holds two equal values and counts the
// pairs of vs with equal top 32 bits. It partitions vs in place by the top
// 16 bits (two in-place MSD radix passes of one byte each, which keep the
// write heads in cache), then counts each bucket's equal bits 32-47 in a
// table. Full values are compared only inside a top-32 match, and only
// until the first equal pair turns up: linear time, no second buffer, even
// when a broken round collides massively.
func collisions(vs []uint64) (dup bool, top32 int) {
	const buckets = 1 << 16
	cnt := make([]uint32, buckets)
	for _, hi := range byteBuckets(vs, 56) {
		for _, bucket := range byteBuckets(hi, 48) {
			for i, v := range bucket {
				k := v >> 32 & (buckets - 1)
				if c := cnt[k]; c > 0 {
					top32 += int(c)
					if !dup {
						dup = slices.Contains(bucket[:i], v)
					}
				}
				cnt[k]++
			}
			for _, v := range bucket {
				cnt[v>>32&(buckets-1)] = 0
			}
		}
	}
	return dup, top32
}

// byteBuckets permutes vs in place into 256 buckets by the byte at shift
// (American flag sort's pass) and returns the buckets in byte order.
func byteBuckets(vs []uint64, shift uint) [][]uint64 {
	var start [257]int
	for _, v := range vs {
		start[v>>shift&0xff+1]++
	}
	for b := 1; b <= 256; b++ {
		start[b] += start[b-1]
	}
	next := start
	for b := 0; b < 256; b++ {
		for next[b] < start[b+1] {
			v := vs[next[b]]
			for d := int(v >> shift & 0xff); d != b; d = int(v >> shift & 0xff) {
				vs[next[d]], v = v, vs[next[d]]
				next[d]++
			}
			vs[next[b]] = v
			next[b]++
		}
	}
	out := make([][]uint64, 256)
	for b := range out {
		out[b] = vs[start[b]:start[b+1]]
	}
	return out
}

// TestFPQualityBattery runs the collision half of the battery over the 2^24
// structured sequences. The enumeration takes several seconds, so -short
// skips it.
func TestFPQualityBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("2^24-sequence enumeration; run without -short")
	}
	alpha := qualityAlphabets()
	const n = 1 << 24
	// Birthday expectation of equal pairs among n uniform 32-bit values.
	birthday := float64(n) * float64(n-1) / 2 / (1 << 32)
	vs := make([]uint64, 0, n)
	// check enumerates one quantity of every sequence. Sum outputs
	// (uniform) must also collide in their top 32 bits like uniform values;
	// the raw lanes are not avalanched, so only their full collisions count.
	check := func(name string, uniform bool, fill func()) {
		t.Helper()
		start := time.Now()
		vs = vs[:0]
		fill()
		if len(vs) != n {
			t.Fatalf("%s: enumerated %d sequences, want %d", name, len(vs), n)
		}
		dup, top32 := collisions(vs)
		t.Logf("%s: 64-bit collision %v, %d top-32 collisions (birthday %.0f), %v",
			name, dup, top32, birthday, time.Since(start).Round(time.Millisecond))
		if dup {
			t.Errorf("%s: 64-bit collision among %d structured sequences", name, n)
		}
		if r := float64(top32) / birthday; uniform && (r < 0.95 || r > 1.05) {
			t.Errorf("%s: %d top-32 collisions, %.3f× the birthday expectation", name, top32, r)
		}
	}

	var plain FP
	root := func(int) *FP { return &plain }
	check("plain Lo", true, func() { enumerate(alpha, root, func() { vs = append(vs, plain.Sum().Lo) }) })
	check("plain Hi", true, func() { enumerate(alpha, root, func() { vs = append(vs, plain.Sum().Hi) }) })
	check("plain lane a", false, func() { enumerate(alpha, root, func() { vs = append(vs, plain.a) }) })
	check("plain lane b", false, func() { enumerate(alpha, root, func() { vs = append(vs, plain.b) }) })

	// Orbit mode: process k's lane takes the k-th 4-word cycle. Each lane
	// opens with its own index, so no two sequences are lane permutations of
	// one another and every collision would be a genuine one.
	orb := NewOrbitFP(3, nil)
	for k := range 3 {
		orb.Lane(ProcID(k)).Int(k)
	}
	lane := func(pos int) *FP { return orb.Lane(ProcID(pos / 4)) }
	check("orbit Lo", true, func() { enumerate(alpha, lane, func() { vs = append(vs, orb.Sum().Lo) }) })
	check("orbit Hi", true, func() { enumerate(alpha, lane, func() { vs = append(vs, orb.Sum().Hi) }) })
}

// TestFPAvalanche: flipping any one bit of an 8-word sequence flips Sum's
// 128 bits with an average probability within [0.48, 0.52], over random
// base sequences.
func TestFPAvalanche(t *testing.T) {
	const (
		words  = 8
		trials = 1000
	)
	var flips [words * 64]int
	var seq [words]uint64
	sum := func() Fingerprint {
		var h FP
		for _, w := range seq {
			h.Word(w)
		}
		return h.Sum()
	}
	for r := range trials {
		for i := range seq {
			seq[i] = Mix(uint64(r*words+i) + fpGolden)
		}
		base := sum()
		for bit := range flips {
			seq[bit/64] ^= 1 << (bit % 64)
			s := sum()
			seq[bit/64] ^= 1 << (bit % 64)
			flips[bit] += bits.OnesCount64(s.Lo^base.Lo) + bits.OnesCount64(s.Hi^base.Hi)
		}
	}
	lo, hi := 1.0, 0.0
	for bit, f := range flips {
		p := float64(f) / (trials * 128)
		lo, hi = min(lo, p), max(hi, p)
		if p < 0.48 || p > 0.52 {
			t.Errorf("input bit %d of word %d flips Sum bits with probability %.4f", bit%64, bit/64, p)
		}
	}
	t.Logf("per-input-bit avalanche over %d trials: [%.4f, %.4f]", trials, lo, hi)
}
