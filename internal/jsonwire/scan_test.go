package jsonwire

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// grammarEnd is the reference number grammar: the offset past the
// longest -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at s[i], i when
// there is none or its fraction or exponent has no digits, and whether
// the number has neither. It checks the grammar alone, in the plainest
// form, as the reference for where ScanFloat, ScanInt and ScanUint must
// end.
func grammarEnd(s string, i int) (end int, integer bool) {
	digits := func(j int) int {
		for j < len(s) && '0' <= s[j] && s[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(s) && s[j] == '-' {
		j++
	}
	switch {
	case j == len(s):
		return i, false
	case s[j] == '0':
		j++
	case '1' <= s[j] && s[j] <= '9':
		j = digits(j + 1)
	default:
		return i, false
	}
	integer = true
	if j < len(s) && s[j] == '.' {
		d := digits(j + 1)
		if d == j+1 {
			return i, false
		}
		j, integer = d, false
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		d := j + 1
		if d < len(s) && (s[d] == '+' || s[d] == '-') {
			d++
		}
		e := digits(d)
		if e == d {
			return i, false
		}
		j, integer = e, false
	}
	return j, integer
}

// checkFloat holds ScanFloat on s, read from inside a larger buffer, to
// the grammar's end and strconv.ParseFloat's value bits and verdict.
func checkFloat(t *testing.T, s string) (float64, bool) {
	t.Helper()
	b := []byte("[" + s)
	f, end, ok := ScanFloat(b, 1)
	wantEnd, _ := grammarEnd(string(b), 1)
	if end != wantEnd {
		t.Fatalf("ScanFloat(%.40q): end %d, want %d", s, end-1, wantEnd-1)
	}
	if wantEnd == 1 {
		if ok {
			t.Fatalf("ScanFloat(%.40q) = %v, ok; want no number", s, f)
		}
		return 0, false
	}
	want, err := strconv.ParseFloat(string(b[1:wantEnd]), 64)
	if ok != (err == nil) {
		t.Fatalf("ScanFloat(%.40q): ok %v, ParseFloat error %v", s, ok, err)
	}
	if ok && math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("ScanFloat(%.40q) = %v (%#x), ParseFloat %v (%#x)", s, f, math.Float64bits(f), want, math.Float64bits(want))
	}
	return f, ok
}

func TestScanFloatHardCases(t *testing.T) {
	// strconv stops adding exponent digits once the exponent reaches
	// 10000, so this reads as 1 where arithmetic says +Inf; and an
	// exponent of 2^64 + 1 must not wrap around to 1.
	capped := "0." + strings.Repeat("0", 9999) + "1e100000"
	for _, c := range []struct {
		s    string
		want string // when set, the value's %b must be this ("" = only agree with strconv)
		ok   bool
	}{
		{"-0", "-0p-1074", true},
		{"0e999999", "0p-1074", true},
		{"-0.000e-5", "-0p-1074", true},
		{"5e-324", "1p-1074", true},
		{"2.4703282292062327e-324", "0p-1074", true},
		{"2.4703282292062328e-324", "1p-1074", true},
		{"2.2250738585072011e-308", "", true},
		{"2.2250738585072012e-308", "", true},
		{"4.9406564584124654e-324", "", true},
		{"1e23", "", true},
		{"8.589973e9", "", true},
		{"9007199254740993", "4503599627370496p+1", true},
		{"9007199254740995", "", true},
		{"1.7976931348623157e308", "", true},
		{"1.7976931348623158e308", "", true},
		{"1.7976931348623159e308", "", false},
		{"-1e400", "", false},
		{"123456789012345678901234567890", "", true},
		{"0.1000000000000000055511151231257827021181583404541015625", "", true},
		{"0.10000000000000000555111512312578270211815834045410156250001", "", true},
		{"1e22", "", true}, {"1e-22", "", true}, {"1e23", "", true}, {"1e-23", "", true},
		{"-1e22", "", true}, {"-1e-23", "", true},
		{"123e35", "", true}, {"1e37", "", true}, {"1234567890123456e22", "", true},
		{"0.044194173824159216", "", true}, {"-0.00012345678901234567", "", true},
		{"1.2345678901234567e-7", "", true}, {"12345678901234567890", "", true},
		{"12345678901234567890e-19", "", true}, {"10000000000000000000000001", "", true},
		{"1E+2", "", true}, {"1e-0", "", true}, {"1e0000000000000000000001", "", true},
		{capped, "4503599627370496p-52", true},
		{"1e18446744073709551617", "", false},
		{"1e-18446744073709551617", "0p-1074", true},
		{"0." + strings.Repeat("0", 400) + "1e400", "", true},
		// Grammar: no number, or a shorter one than strconv would read.
		{"", "", false}, {"-", "", false}, {"-x", "", false}, {"+1", "", false},
		{".5", "", false}, {"1.", "", false}, {"1.e5", "", false}, {"1e", "", false},
		{"1e+", "", false}, {"1.5E-", "", false}, {"Inf", "", false}, {"NaN", "", false},
		{"-Infinity", "", false}, {"0x10", "", true}, {"1_0", "", true}, {"01", "", true},
		{"-01.5", "", true}, {"1.5.3", "", true}, {"1e5e5", "", true}, {"1e5.5", "", true},
		{"2]", "", true}, {"3,", "", true},
	} {
		f, ok := checkFloat(t, c.s)
		if ok != c.ok {
			t.Errorf("ScanFloat(%.40q): ok %v, want %v", c.s, ok, c.ok)
		}
		if c.want != "" && strconv.FormatFloat(f, 'b', -1, 64) != c.want {
			t.Errorf("ScanFloat(%.40q) = %b, want %s", c.s, f, c.want)
		}
	}
}

// TestScanFloatEveryTableRow converts a short and a 19-digit mantissa at
// every decimal exponent a float64 reaches, so each row of the
// powers-of-ten table is used at least once.
func TestScanFloatEveryTableRow(t *testing.T) {
	for e := -345; e <= 310; e++ {
		checkFloat(t, fmt.Sprintf("1e%d", e))
		checkFloat(t, fmt.Sprintf("-7e%d", e))
		checkFloat(t, fmt.Sprintf("9214748364712345678e%d", e-18))
		checkFloat(t, fmt.Sprintf("0.1234567890123456789e%d", e))
	}
}

func TestScanFloatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, fmtc := range []byte{'g', 'e', 'f'} {
			checkFloat(t, strconv.FormatFloat(f, fmtc, -1, 64))
		}
		// A decimal read at less than round-trip precision lands off the
		// float64 grid, where rounding is decided.
		checkFloat(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
	}
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{"0", "-0", "1e23", "5e-324", "1.7976931348623159e308", "0.1", "1.", "-", "01", "1e+"} {
		f.Add(uint64(0), byte('g'), s)
	}
	f.Add(math.Float64bits(0.044194173824159216), byte('f'), "")
	f.Add(math.Float64bits(-1.2345e-7), byte('g'), "")
	f.Add(math.Float64bits(math.MaxFloat64), byte('f'), "")
	f.Add(uint64(1), byte('e'), "2.4703282292062328e-324")
	f.Fuzz(func(t *testing.T, bits uint64, fmtc byte, raw string) {
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkFloat(t, strconv.FormatFloat(v, "gef"[int(fmtc)%3], -1, 64))
		}
		checkFloat(t, raw)
	})
}

// TestScanFloatFastPathShare guards the converter's speed, which no
// answer shows: on the vectors a d = 512 query carries — json.Marshal'd
// unit-norm float64s — fewer than 0.1 % of numbers may leave parseFast
// for strconv. A converter that sent every number there would give the
// same bits and fail only here.
func TestScanFloatFastPathShare(t *testing.T) {
	const d = 512
	rng := rand.New(rand.NewSource(2))
	var total, slow int
	v := make([]float64, d)
	for total < 100000 {
		var s float64
		for j := range v {
			v[j] = rng.NormFloat64()
			s += v[j] * v[j]
		}
		for j := range v {
			v[j] /= math.Sqrt(s)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := 1, 0; j < d; j++ {
			f, end, ok := parseFast(b, i)
			if end == i {
				t.Fatalf("no number at %d of %s", i, b)
			}
			if !ok {
				slow++
				f, _ = strconv.ParseFloat(string(b[i:end]), 64)
			}
			if f != v[j] {
				t.Fatalf("element %d: read %v, marshalled %v", j, f, v[j])
			}
			total++
			i = end + 1
		}
	}
	if slow*1000 >= total {
		t.Fatalf("%d of %d numbers went to strconv, want under 0.1 %%", slow, total)
	}
}

// checkInt holds ScanInt and ScanUint on s to the grammar's end and the
// verdicts of strconv.ParseInt(s, 10, 0) and ParseUint(s, 10, 64) on
// what it reads.
func checkInt(t *testing.T, s string) {
	t.Helper()
	end, integer := grammarEnd(s, 0)
	n, iend, ok := ScanInt([]byte(s), 0)
	want, err := strconv.ParseInt(s[:end], 10, 0)
	if wantOK := integer && err == nil; ok != wantOK || ok && (int64(n) != want || iend != end) {
		t.Errorf("ScanInt(%q) = %d, %d, %v; want %d, %d, %v", s, n, iend, ok, want, end, wantOK)
	}
	u, uend, ok := ScanUint([]byte(s), 0)
	wantU, err := strconv.ParseUint(s[:end], 10, 64)
	if wantOK := integer && err == nil; ok != wantOK || ok && (u != wantU || uend != end) {
		t.Errorf("ScanUint(%q) = %d, %d, %v; want %d, %d, %v", s, u, uend, ok, wantU, end, wantOK)
	}
}

func TestScanIntegers(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "7", "-7", "01", "10x", "12,", "", "-", "+1", "x",
		"1.", "1.0", "1e3", "1E", "3.x", "1e+", "-5.5",
		strconv.FormatInt(math.MaxInt, 10), strconv.FormatInt(math.MinInt, 10),
		"9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "18446744073709551620",
		"99999999999999999999", "-18446744073709551615", "123456789012345678901234567890",
	} {
		checkInt(t, s)
	}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 2000; n++ {
		checkInt(t, strconv.FormatInt(rng.Int63()>>rng.Intn(63), 10))
		checkInt(t, strconv.FormatUint(rng.Uint64(), 10))
	}
}

// unitBody is a json.Marshal'd unit-norm vector of d float64s.
func unitBody(d int) []byte {
	rng := rand.New(rand.NewSource(int64(d)))
	v := make([]float64, d)
	for j := range v {
		v[j] = rng.NormFloat64() / math.Sqrt(float64(d))
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func TestScanFloatsAllocs(t *testing.T) {
	body := unitBody(512)
	if allocs := testing.AllocsPerRun(20, func() {
		if v, _ := ScanFloats(body, 0); len(v) != 512 {
			t.Fatalf("read %d of 512", len(v))
		}
	}); allocs != 1 {
		t.Fatalf("%v allocations per array, want 1 (the result)", allocs)
	}
}

// BenchmarkScanFloats reads one json.Marshal'd unit-norm vector — a
// /search/vector body's array at d = 8 (emr_vec, dist_fanout) and
// d = 512 (graph_vec_d512) — with no allocation but its result.
func BenchmarkScanFloats(b *testing.B) {
	for _, d := range []int{8, 512} {
		body := unitBody(d)
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v, _ := ScanFloats(body, 0); len(v) != d {
					b.Fatalf("read %d of %d", len(v), d)
				}
			}
		})
	}
}
