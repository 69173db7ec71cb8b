package wire

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refScanner reads numbers the way the decoder did before the one-pass scan:
// the grammar first, then strconv on the literal. It is the reference the
// scan must match on value bits, error and cursor.
type refScanner struct{ scanner }

func refDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (s *refScanner) number() (integral bool, err error) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := refDigits(b, i); j > i {
		i = j
	} else if s.peek() == 'n' {
		return false, s.fail("null array element")
	} else {
		s.i = i
		return false, s.fail("want a number")
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		j := refDigits(b, i+1)
		if s.i = j; j == i+1 {
			return false, s.fail("want a digit after '.'")
		}
		i = j
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := refDigits(b, i)
		if s.i = j; j == i {
			return false, s.fail("want a digit in the exponent")
		}
		i = j
	}
	s.i = i
	return integral, nil
}

func (s *refScanner) float() (float64, error) {
	lo := s.i
	if _, err := s.number(); err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(s.b[lo:s.i]), 64)
	if err != nil {
		s.i = lo
		return 0, s.fail("number out of float64 range")
	}
	return v, nil
}

func (s *refScanner) integer() (int64, error) {
	lo := s.i
	integral, err := s.number()
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseInt(string(s.b[lo:s.i]), 10, 64)
	if !integral || perr != nil {
		s.i = lo
		return 0, s.fail("want an integer in int64 range")
	}
	return v, nil
}

// numberMismatch compares the scan with the reference on one body, read from
// its first byte as a number and as a float, and returns what differs or "".
// integer() and skip() only add to number() what the reference adds to its
// own; integerMismatch checks the first on the edge literals and the fuzzer.
func numberMismatch(body []byte) string {
	ref, got := refScanner{scanner{b: body}}, scanner{b: body}
	wantIntegral, wantErr := ref.number()
	_, integral, err := got.number()
	if integral != wantIntegral || got.i != ref.i || !sameError(err, wantErr) {
		return "number: integral " + strconv.FormatBool(integral) + " at " + strconv.Itoa(got.i) + ", " + errString(err) +
			"; reference " + strconv.FormatBool(wantIntegral) + " at " + strconv.Itoa(ref.i) + ", " + errString(wantErr)
	}
	ref.i, got.i = 0, 0
	wantV, wantErr := ref.float()
	v, err := got.float()
	if math.Float64bits(v) != math.Float64bits(wantV) || got.i != ref.i || !sameError(err, wantErr) {
		return "float: " + strconv.FormatUint(math.Float64bits(v), 16) + " at " + strconv.Itoa(got.i) + ", " + errString(err) +
			"; reference " + strconv.FormatUint(math.Float64bits(wantV), 16) + " at " + strconv.Itoa(ref.i) + ", " + errString(wantErr)
	}
	return ""
}

func integerMismatch(body []byte) string {
	ref, got := refScanner{scanner{b: body}}, scanner{b: body}
	want, wantErr := ref.integer()
	n, err := got.integer()
	if n != want || got.i != ref.i || !sameError(err, wantErr) {
		return "integer: " + strconv.FormatInt(n, 10) + " at " + strconv.Itoa(got.i) + ", " + errString(err) +
			"; reference " + strconv.FormatInt(want, 10) + " at " + strconv.Itoa(ref.i) + ", " + errString(wantErr)
	}
	return ""
}

// sameError: both nil, or the same offset, member and message.
func sameError(a, b error) bool {
	ea, _ := a.(*Error)
	eb, _ := b.(*Error)
	return a == nil && b == nil || ea != nil && eb != nil && *ea == *eb
}

func errString(err error) string {
	if err == nil {
		return "no error"
	}
	return err.Error()
}

// numberSuffixes follow each literal: the end of the body, the separators
// that end a number inside an array, and two bytes that extend or break it.
var numberSuffixes = []string{"", ",", "]", "e", "x"}

// edgeLiterals are the number literals whose conversion is hardest to get
// right; corpus wraps each in a body.
var edgeLiterals = []string{
	// Signed zeros, also at exponents far outside any table.
	"0", "-0", "0.0", "-0.0", "0e-999", "-0e-999", "0e999", "0.000e+12",
	// 2^53 - 1, 2^53 and 2^53 + 1 (halfway, rounds to even), and halfway
	// cases rounding down and up.
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995",
	"4503599627370496.5", "4503599627370497.5", "9007199254740993.0000000001",
	// The largest exactly representable power of ten, and the first that
	// is not.
	"1e22", "1e23", "-1e23", "8.589973e9",
	// 17, 19 and 20 significant digits, trailing zeros included.
	"0.30000000000000004", "1.7976931348623157", "2.2250738585072014",
	"1234567890123456789", "0.1234567890123456789", "9999999999999999999",
	"12345678901234567890", "0.12345678901234567891", "1.0000000000000000000",
	"10000000000000000000", "18446744073709551615", "18446744073709551616",
	"100000000000000000000000", "7.2057594037927933e16",
	// The subnormal and normal ends of float64, and past its top.
	"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.2250738585072011e-308",
	"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "1e309", "-1e309",
	// The edges of the power-of-ten table, one step inside and outside.
	"1e-65", "1e-64", "1e-63", "1e63", "1e64", "1e65",
	"-15e-65", "123e-66", "12345e60", "98765e61", "1.5e65", "9.999999999999999e64",
	// Exponents of twenty digits.
	"1e12345678901234567890", "1e-12345678901234567890", "1E+00000000000000000001",
	"0e12345678901234567890",
	// Exponents past where strconv stops reading their digits (10 000),
	// brought back into range by leading zeros: the value is strconv's.
	"0." + strings.Repeat("0", 10000) + "1e10001", "-0." + strings.Repeat("0", 10060) + "25e10000",
	// Leading zeros after the point, fewer and more than a mantissa holds.
	"0.000001", "-0.0000012", "0.0000000000000000000001",
	"0.00000000000000000000123456789012345678", "0.000000000000000000001234567890123456789",
	"0.0000000000000000000000000000000000000000000000000000000000000000000001",
	"1.00000000000000000000000000000000000000000000000000000000000000000000001",
	// Integers for the integer reader: int64's ends and one past each.
	"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
	// Malformed literals.
	"-", "+1", "01", "1.", ".5", "1e", "1e+", "-e5", "1.e5", "00", "-01.5", "1ee5", "1e5.5", "nul", "null",
}

// TestNumberParityEdges holds the scan to the reference on every edge literal
// and suffix.
func TestNumberParityEdges(t *testing.T) {
	for _, lit := range edgeLiterals {
		for _, suffix := range numberSuffixes {
			body := []byte(lit + suffix)
			if diff := numberMismatch(body) + integerMismatch(body); diff != "" {
				t.Errorf("%.80q: %s", body, diff)
			}
		}
	}
}

// TestNumberParityGenerated holds the scan to the reference on a million
// generated literals, each under every suffix: shortest 'g', 'f' with 0–24
// fixed digits, 'e' at every precision, and random bit patterns (NaN, ±Inf,
// subnormals and huge values included).
func TestNumberParityGenerated(t *testing.T) {
	const literals = 1 << 20
	rng := rand.New(rand.NewSource(33))
	var lit []byte
	fails := 0
	for k := 0; k < literals && fails < 10; k++ {
		// A measurement-like magnitude: a normal draw scaled by 10^-30…10^30.
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
		switch k % 4 {
		case 0:
			lit = strconv.AppendFloat(lit[:0], x, 'g', -1, 64)
		case 1:
			lit = strconv.AppendFloat(lit[:0], x, 'f', rng.Intn(25), 64)
		case 2:
			lit = strconv.AppendFloat(lit[:0], x, 'e', rng.Intn(22)-1, 64)
		default:
			lit = strconv.AppendFloat(lit[:0], math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		}
		end := len(lit)
		for _, suffix := range numberSuffixes {
			body := append(lit[:end], suffix...)
			if diff := numberMismatch(body); diff != "" {
				t.Errorf("%q: %s", body, diff)
				fails++
			}
		}
	}
}

// TestPowersOfTen checks every entry of the table against an independent
// computation: 10^e as a 512-bit big.Float, its mantissa scaled to 128 bits
// and truncated. It also checks the binary exponent eiselLemire derives from
// e, and that a step past either end of the table falls back to strconv with
// the same bits.
func TestPowersOfTen(t *testing.T) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for e := minExp10; e <= maxExp10; e++ {
		x := new(big.Float).SetPrec(512).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			x.Quo(new(big.Float).SetPrec(512).SetInt64(1), x)
		}
		mant := new(big.Float)
		exp := x.MantExp(mant) // x = mant·2^exp, ½ ≤ mant < 1
		if got := 217706 * e >> 16; got != exp-1 {
			t.Errorf("10^%d: binary exponent %d, want %d", e, got, exp-1)
		}
		m, _ := mant.SetMantExp(mant, 128).Int(nil)
		want := [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), new(big.Int).And(m, mask).Uint64()}
		if got := pow10[e-minExp10]; got != want {
			t.Errorf("10^%d: table %#x, math/big %#x", e, got, want)
		}
	}
	for _, e := range []int{minExp10 - 1, maxExp10 + 1} {
		if _, ok := eiselLemire(1, e, false); ok {
			t.Errorf("10^%d is past the table, yet Eisel–Lemire answered", e)
		}
	}
	for _, e := range []int{minExp10, maxExp10} {
		if _, ok := eiselLemire(1, e, false); !ok {
			t.Errorf("10^%d is in the table, yet Eisel–Lemire fell back", e)
		}
	}
	for _, lit := range []string{"1e-65", "-7e-65", "123e-67", "1e65", "-9e65", "31e64"} {
		want, _ := strconv.ParseFloat(lit, 64)
		s := scanner{b: []byte(lit)}
		if got, err := s.float(); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %v (%v), strconv %v", lit, got, err, want)
		}
	}
}
