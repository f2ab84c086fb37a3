package arena

import (
	"strconv"
	"testing"
)

// numOfCases are values numOf must read exactly as strconv.ParseFloat
// does: numbers in every syntax ParseFloat accepts, and near-numbers whose
// rejection must come before the parse.
var numOfCases = []string{
	"", "0", "42", "-7", "+3.5", ".5", "5.", "1e9", "1E-9", "-2.5e+3",
	"0x1p-2", "0X1.8P+1", "inf", "-Inf", "+infinity", "NaN", "1_000",
	"12-330", "2001-12-04", "1+2", "1e5-", "--1", "+-1", "-", "e-5",
	"0x1e-2", "3 - 4", "1.5.2", "abc", "n/a", "- 1",
}

// TestNumOfMatchesParseFloat: numOf accepts exactly what
// strconv.ParseFloat accepts, with the same value.
func TestNumOfMatchesParseFloat(t *testing.T) {
	for _, v := range numOfCases {
		want, err := strconv.ParseFloat(v, 64)
		got, ok := numOf(v)
		if ok != (err == nil) || (ok && got != want && !(got != got && want != want)) {
			t.Errorf("numOf(%q) = %v, %v; ParseFloat = %v, %v", v, got, ok, want, err)
		}
	}
}

// TestNumOfNearNumberAllocs: a value with a sign inside it, such as a page
// range or a date, is rejected without the allocating parse.
func TestNumOfNearNumberAllocs(t *testing.T) {
	for _, v := range []string{"12-330", "2001-12-04", "1+2"} {
		if n := testing.AllocsPerRun(100, func() { numOf(v) }); n != 0 {
			t.Errorf("numOf(%q) allocates %v times, want 0", v, n)
		}
	}
}
