package wire

import "testing"

// The three targets share the seed corpus (corpus, decode_test.go) and check
// the properties the table tests check on it; see checkDecode and checkScan.

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
