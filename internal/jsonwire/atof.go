package jsonwire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The number converter behind ScanFloat: one loop reads a JSON number's
// grammar and its digits together, and the value is built from the
// decimal mantissa and exponent the loop collects, by the same two
// exact methods strconv.ParseFloat tries first — Clinger's fast path and
// the Eisel–Lemire algorithm (D. Lemire, "Number Parsing at a Gigabyte
// per Second", 2021). Both give the correctly rounded value or decline,
// so an accepted number carries ParseFloat's bits; what they decline,
// ScanFloat hands to ParseFloat itself.

// maxMantDigits is the number of significant digits the mantissa keeps:
// 10^19 - 1 fits in a uint64. strconv reads the same 19.
const maxMantDigits = 19

// maxExpAccum stops the exponent's accumulation the way strconv's
// readFloat does: once the running value reaches it, further exponent
// digits are read but not added, so a long exponent cannot wrap int.
// Where the cap changes the arithmetic ("0.<9999 zeros>1e100000" reads
// as 1), it gives strconv's answer, the one to give.
const maxExpAccum = 10000

// parseFast reads the JSON number at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and converts it when
// an exact method applies. end is the offset past the longest such
// number; end == i when there is none. A number whose fraction or
// exponent marker has no digits after it ("1.", "1e+") is none. ok is
// true when f holds the value; false with end > i means the conversion
// is left to strconv: more than 19 significant digits with a non-zero
// digit past them, a value outside the powers-of-ten table, a subnormal
// or an overflow, or Eisel–Lemire's ambiguous halfway case. strconv
// accepts more than JSON does (+1, .5, 1., 0x10, 1_0, Inf), which is why
// the grammar is checked here. A number running into a byte that cannot
// follow one ("01") is the caller's to reject.
func parseFast(b []byte, i int) (f float64, end int, ok bool) {
	j := i
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	var d decimal
	switch {
	case j == len(b):
		return 0, i, false
	case b[j] == '0':
		j++
	case '1' <= b[j] && b[j] <= '9':
		j = d.digits(b, j)
	default:
		return 0, i, false
	}
	exp10 := 0
	if j < len(b) && b[j] == '.' {
		start := j + 1
		j = start
		if d.man == 0 {
			// Leading zeros add nothing to the mantissa; they still move
			// the point, through exp10.
			for j < len(b) && b[j] == '0' {
				j++
			}
		}
		if j = d.digits(b, j); j == start {
			return 0, i, false
		}
		exp10 = start - j
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		eneg := false
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			eneg = b[k] == '-'
			k++
		}
		e, start := 0, k
		for ; k < len(b); k++ {
			c := b[k] - '0'
			if c > 9 {
				break
			}
			if e < maxExpAccum {
				e = e*10 + int(c)
			}
		}
		if k == start {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
		j = k
	}
	if d.man == 0 {
		if neg {
			return math.Copysign(0, -1), j, true
		}
		return 0, j, true
	}
	if d.trunc {
		return 0, j, false
	}
	exp10 += d.dropped
	if f, ok = exactFloat(d.man, exp10, neg); ok {
		return f, j, true
	}
	f, ok = eiselLemire(d.man, exp10, neg)
	return f, j, ok
}

// decimal is the mantissa parseFast collects: the first maxMantDigits
// significant digits in man, the count of those past them in dropped.
type decimal struct {
	man     uint64
	nd      int  // digits in man
	dropped int  // significant digits past them
	trunc   bool // a dropped digit is non-zero
}

// digits reads the run of decimal digits at b[j:] into d and returns
// the offset past it. Whole groups of eight go in one step while man
// has room for them.
func (d *decimal) digits(b []byte, j int) int {
	for d.nd <= maxMantDigits-8 && len(b)-j >= 8 {
		v := binary.LittleEndian.Uint64(b[j:])
		if !eightDigits(v) {
			break
		}
		d.man = d.man*1e8 + eightValue(v)
		d.nd += 8
		j += 8
	}
	for ; j < len(b); j++ {
		c := b[j] - '0'
		if c > 9 {
			break
		}
		if d.nd < maxMantDigits {
			d.man = d.man*10 + uint64(c)
			d.nd++
		} else {
			d.dropped++
			d.trunc = d.trunc || c != 0
		}
	}
	return j
}

// eightDigits reports whether all eight bytes of v, read little-endian,
// are ASCII digits: each byte's high nibble is 3, and adding 6 to it
// does not carry into the high nibble.
func eightDigits(v uint64) bool {
	const ones = 0x0101010101010101
	return (v&(0xF0*ones))|((v+0x06*ones)&(0xF0*ones))>>4 == 0x33*ones
}

// eightValue is the number the eight ASCII digits of v spell, the first
// byte most significant: pairs, then quads, then the whole, each step
// one multiply-and-shift.
func eightValue(v uint64) uint64 {
	v = (v & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (v & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat is Clinger's fast path: with man < 2^53 and |exp10| ≤ 22
// both operands are exact float64s and one multiplication or division
// rounds once, correctly. An integer exponent up to 37 first moves
// exp10 - 22 zeros into man when the product stays at most 10^15, so
// exact.
func exactFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man>>53 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22:
		if exp10 > 22 {
			f *= pow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * pow10[exp10], true
	case exp10 < 0 && exp10 >= -22:
		return f / pow10[-exp10], true
	}
	return 0, false
}

// The powers-of-ten table for eiselLemire: for each e10 in
// [minExp10, maxExp10], the 128 leading bits of 10^e10, rounded down,
// as hi:lo with the top bit of hi set. The binary exponent that goes
// with each row is implied, floor(e10·log2(10)), computed in the
// algorithm as 217706·e10 >> 16.
const (
	minExp10 = -348
	maxExp10 = 347
)

var pow10Mant = powersOfTen()

// powersOfTen derives the table exactly with math/big: 10^n shifted to
// 128 bits for the row of n, and floor(2^(127+L) / 10^n) for the row of
// -n, where 10^n has L bits, which lands in [2^127, 2^128).
func powersOfTen() *[maxExp10 - minExp10 + 1][2]uint64 {
	var t [maxExp10 - minExp10 + 1][2]uint64
	p, m, w := big.NewInt(1), new(big.Int), new(big.Int)
	ten, one := big.NewInt(10), big.NewInt(1)
	low := new(big.Int).SetUint64(math.MaxUint64)
	set := func(e10 int) {
		t[e10-minExp10] = [2]uint64{w.Rsh(m, 64).Uint64(), w.And(m, low).Uint64()}
	}
	for n := 0; n <= -minExp10; n, p = n+1, p.Mul(p, ten) {
		if n <= maxExp10 {
			if shift := p.BitLen() - 128; shift > 0 {
				m.Rsh(p, uint(shift))
			} else {
				m.Lsh(p, uint(-shift))
			}
			set(n)
		}
		if n > 0 {
			m.Quo(m.Lsh(one, uint(127+p.BitLen())), p)
			set(-n)
		}
	}
	return &t
}

// eiselLemire converts man·10^exp10 (man ≠ 0) to the nearest float64,
// or declines: outside the table, when the 128-bit product cannot decide
// the rounding (the halfway case), and for a subnormal or an overflow.
// This is the algorithm strconv runs; what it returns, it returns
// correctly rounded.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	// Normalise man so its top bit is set; the biased binary exponent of
	// the result follows from exp10 and the shift.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The product with the high 64 bits of the power. When its low nine
	// bits of hi are all ones, adding the power's low 64 bits may carry
	// into them; if it still cannot be told whether it does, decline.
	row := &pow10Mant[exp10-minExp10]
	hi, lo := bits.Mul64(man, row[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, row[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits, then round to 53, half to even. A product exactly
	// halfway between two float64s cannot be told from one just off it.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (or a wrap below it) is subnormal, 0x7FF and
	// up is infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fb := exp2<<52 | mant&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}
