package wire

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// ErrNonFinite is what AppendAllocateResponse returns for a NaN or ±Inf
// predicted importance, which JSON cannot carry.
var ErrNonFinite = errors.New("wire: non-finite predicted_importance")

// AppendAllocateResponse appends r exactly as json.NewEncoder(w).Encode(r)
// writes it — member order, omitempty on degraded_reason and train_ns, string
// escaping, float formatting, the trailing newline — so clients that scan
// answers for `"mode":"degraded"` or `"cache":"hit"` keep matching.
func AppendAllocateResponse(dst []byte, r *AllocateResponse) ([]byte, error) {
	if math.IsNaN(r.PredictedImportance) || math.IsInf(r.PredictedImportance, 0) {
		return dst, ErrNonFinite
	}
	dst = append(dst, `{"allocation":`...)
	if r.Allocation == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, proc := range r.Allocation {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(proc), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"cluster":`...)
	dst = strconv.AppendInt(dst, int64(r.Cluster), 10)
	dst = append(dst, `,"cache":`...)
	dst = appendString(dst, r.Cache)
	dst = append(dst, `,"allocator":`...)
	dst = appendString(dst, r.Allocator)
	dst = append(dst, `,"mode":`...)
	dst = appendString(dst, r.Mode)
	if r.DegradedReason != "" {
		dst = append(dst, `,"degraded_reason":`...)
		dst = appendString(dst, r.DegradedReason)
	}
	dst = append(dst, `,"predicted_importance":`...)
	dst = appendFloat(dst, r.PredictedImportance)
	if r.TrainNanos != 0 {
		dst = append(dst, `,"train_ns":`...)
		dst = strconv.AppendInt(dst, r.TrainNanos, 10)
	}
	dst = append(dst, `,"latency_ns":`...)
	dst = strconv.AppendInt(dst, r.LatencyNanos, 10)
	return append(dst, '}', '\n'), nil
}

// appendFloat formats a finite float64 the way encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, two-digit
// exponents trimmed of their leading zero.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

// appendString quotes s the way encoding/json's Encoder does by default:
// HTML-sensitive characters, control characters, U+2028/9 and invalid UTF-8
// are escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		size := 1
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			if c < utf8.RuneSelf { // a control character, or one of < > &
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
				break
			}
			var r rune
			switch r, size = utf8.DecodeRuneInString(s[i:]); {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			case r == 0x2028 || r == 0x2029:
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			default:
				dst = append(dst, s[i:i+size]...)
			}
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
