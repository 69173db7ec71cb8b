package wire

import "testing"

// The three body targets share the seed corpus (corpus, decode_test.go) and
// check the properties the table tests check on it; see checkDecode and
// checkScan. FuzzParseNumber holds the number scan to its reference.

func FuzzDecodeAllocate(f *testing.F) {
	for _, body := range corpus() {
		f.Add(body)
	}
	f.Fuzz(checkAllocate)
}

func FuzzDecodeFeedback(f *testing.F) {
	for _, body := range corpus() {
		f.Add(body)
	}
	f.Fuzz(checkFeedback)
}

func FuzzScanSignature(f *testing.F) {
	for _, body := range corpus() {
		f.Add(body)
	}
	f.Fuzz(checkScan)
}

func FuzzParseNumber(f *testing.F) {
	for _, lit := range edgeLiterals {
		for _, suffix := range numberSuffixes {
			f.Add([]byte(lit + suffix))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if diff := numberMismatch(b) + integerMismatch(b); diff != "" {
			t.Fatalf("%q: %s", b, diff)
		}
	})
}
