package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The exponent range of pow10 (2 KB). Every shortest-form float64 of
// magnitude 1e-47…1e64 lands in it whatever its digit count; a literal
// outside it goes to strconv.
const (
	minExp10 = -64
	maxExp10 = 64
)

// pow10[e-minExp10] is 10^e as a 128-bit mantissa {hi, lo}: normalised so
// that hi's top bit is set and truncated toward zero, so
// 10^e ≈ (hi·2^64 + lo) · 2^(⌊e·log2 10⌋ − 127). The truncation is the
// direction Eisel–Lemire's error analysis assumes.
var pow10 = powersOfTen()

func powersOfTen() (t [maxExp10 - minExp10 + 1][2]uint64) {
	var buf [16]byte
	for e := minExp10; e <= maxExp10; e++ {
		m := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		switch n := m.BitLen(); {
		case e < 0: // 2^(127+n) / 10^-e lies in (2^127, 2^128): 10^-e is no power of two
			m.Quo(new(big.Int).Lsh(big.NewInt(1), uint(127+n)), m)
		case n > 128:
			m.Rsh(m, uint(n-128))
		default:
			m.Lsh(m, uint(128-n))
		}
		m.FillBytes(buf[:])
		t[e-minExp10] = [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	return t
}

// eiselLemire is the correctly rounded float64 nearest to ±man·10^exp10, by
// the algorithm of Lemire, "Number Parsing at a Gigabyte per Second"
// (arXiv 2101.11408) — the one strconv.ParseFloat runs internally. ok is
// false when exp10 is outside pow10, when the 128-bit product cannot settle
// the rounding, and when the result would be subnormal or overflow; the
// caller then asks strconv. A zero mantissa is ±0 at any exponent.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	p := &pow10[exp10-minExp10]

	// Normalise man so its top bit is set; 217706/2^16 is log2 10 to within
	// the precision this exponent range needs.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The product's top 64 bits carry the result; when the 9 bits below the
	// 54 kept ones are all ones, a carry from the truncated part of 10^exp10
	// could still reach them, so widen with the table's low word.
	hi, lo := bits.Mul64(man, p[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, p[1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Keep 54 bits: 53 and a rounding bit. A product that looks exactly
	// halfway above an even double is either exactly halfway (round down, to
	// even) or just above it (round up); the truncated table cannot tell.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round to 53 bits, half up — which is half to even, as the one tie that
	// would round to odd was refused above — renormalising on a carry.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // exp2 ≤ 0 (subnormal) or ≥ 0x7FF (overflow)
		return 0, false
	}
	return math.Float64frombits(sign | exp2<<52 | mant&(1<<52-1)), true
}
