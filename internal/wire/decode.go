package wire

import (
	"encoding/binary"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// member identifies one member of a request object.
type member uint8

const (
	mSignature member = iota
	mFeatures
	mAllocator
	mAllocation
	mImportance
	mAddToStore
	mSeq
	numMembers
)

var memberNames = [numMembers]string{
	"signature", "features", "allocator", "allocation", "importance", "add_to_store", "seq",
}

// memberSet is a bit per member.
type memberSet uint8

// kindMembers is the grammar table: the members each kind of body may carry.
var kindMembers = [...]memberSet{
	Allocate: 1<<mSignature | 1<<mFeatures | 1<<mAllocator,
	Feedback: 1<<mSignature | 1<<mFeatures | 1<<mAllocation | 1<<mImportance | 1<<mAddToStore | 1<<mSeq,
}

// DecodeAllocate decodes a /v1/allocate body into req, reusing the backing
// arrays of req.Signature and req.Features (rows included): every element it
// leaves visible was parsed from this body. On error req is unspecified.
func DecodeAllocate(body []byte, req *AllocateRequest) error {
	req.Signature, req.Features, req.Allocator = req.Signature[:0], req.Features[:0], ""
	s := scanner{b: body}
	for {
		m, ok, err := s.next(Allocate)
		if err != nil || !ok {
			return err
		}
		switch m {
		case mSignature:
			req.Signature, err = s.floats(req.Signature)
		case mFeatures:
			req.Features, err = s.matrix(req.Features)
		case mAllocator:
			req.Allocator, err = s.str()
		}
		if err != nil {
			return err
		}
	}
}

// DecodeFeedback decodes a /v1/feedback body into a zeroed *req. It reuses
// nothing: the service keeps feedback's feature rows in its sample window.
func DecodeFeedback(body []byte, req *FeedbackRequest) error {
	*req = FeedbackRequest{}
	s := scanner{b: body}
	for {
		m, ok, err := s.next(Feedback)
		if err != nil || !ok {
			return err
		}
		switch m {
		case mSignature:
			req.Signature, err = s.floats(nil)
		case mFeatures:
			req.Features, err = s.matrix(nil)
		case mAllocation:
			req.Allocation, err = s.ints()
		case mImportance:
			req.Importance, err = s.floats(nil)
		case mAddToStore:
			req.AddToStore, err = s.boolean()
		case mSeq:
			req.Seq, err = s.integer()
		}
		if err != nil {
			return err
		}
	}
}

// ScanSignature appends the body's signature onto dst[:0] — empty when the
// member is absent — checking the rest of the body against the same grammar
// without decoding it: member names, no duplicates, well-formed values,
// nothing after the closing brace. It accepts every body Decode* of that kind
// accepts, with the same signature; a body it accepts is one the decoder can
// only fault inside another member's value (Error.Member names it).
func ScanSignature(kind Kind, body []byte, dst []float64) ([]float64, error) {
	dst = dst[:0]
	s := scanner{b: body}
	for {
		m, ok, err := s.next(kind)
		if err == nil && ok {
			if m == mSignature {
				dst, err = s.floats(dst)
			} else {
				err = s.skip(0)
			}
		}
		switch {
		case err != nil:
			return dst[:0], err
		case !ok:
			return dst, nil
		}
	}
}

// scanner is the forward pass over one body.
type scanner struct {
	b      []byte
	i      int
	seen   memberSet
	opened bool
	within string // the member whose value is being read, for errors
}

func (s *scanner) fail(msg string) error {
	return &Error{Offset: s.i, Member: s.within, Msg: msg}
}

// peek is the byte at the cursor, 0 at the end of the body (a byte no
// production of the grammar starts with).
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// next moves to the value of the object's next non-null member. ok is false
// once the object has closed and only whitespace followed it.
func (s *scanner) next(kind Kind) (m member, ok bool, err error) {
	for {
		s.within = ""
		s.space()
		switch c := s.peek(); {
		case !s.opened && c == '{':
			s.opened = true
			s.i++
			s.space()
			if s.peek() == '}' {
				return 0, false, s.close()
			}
		case !s.opened:
			return 0, false, s.fail("body is not an object")
		case c == '}':
			return 0, false, s.close()
		case c == ',':
			s.i++
			s.space()
		default:
			return 0, false, s.fail("want ',' or '}'")
		}
		if m, err = s.name(kind); err != nil {
			return 0, false, err
		}
		s.space()
		if s.peek() != ':' {
			return 0, false, s.fail("want ':'")
		}
		s.i++
		s.space()
		s.within = memberNames[m]
		if s.peek() != 'n' {
			return m, true, nil
		}
		if err = s.literal("null"); err != nil {
			return 0, false, err
		}
	}
}

// close consumes the closing brace and requires the body to end there.
func (s *scanner) close() error {
	s.i++
	s.space()
	if s.i < len(s.b) {
		return s.fail("data after the closing brace")
	}
	return nil
}

// name reads a member name: one of the kind's, spelled exactly, not yet seen.
func (s *scanner) name(kind Kind) (member, error) {
	if s.peek() != '"' {
		return 0, s.fail("want a member name")
	}
	lo := s.i + 1
	for i := lo; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '\\':
			s.i = i
			return 0, s.fail("escape sequence in a member name")
		case c < ' ':
			s.i = i
			return 0, s.fail("control character in a member name")
		case c == '"':
			for m := member(0); m < numMembers; m++ {
				if kindMembers[kind]&(1<<m) == 0 || string(s.b[lo:i]) != memberNames[m] {
					continue
				}
				if s.seen&(1<<m) != 0 {
					return 0, s.fail("duplicate member " + strconv.Quote(memberNames[m]))
				}
				s.seen |= 1 << m
				s.i = i + 1
				return m, nil
			}
			return 0, s.fail("unknown member " + strconv.Quote(string(s.b[lo:i])))
		}
	}
	s.i = len(s.b)
	return 0, s.fail("unterminated member name")
}

func (s *scanner) literal(lit string) error {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return s.fail("want " + lit)
	}
	s.i += len(lit)
	return nil
}

// maxMantDigits is how many significant digits a uint64 always holds.
const maxMantDigits = 19

// decimal is a number literal's value, ±mant·10^exp10, unless trunc: then
// it has more significant digits than mant holds. exp10 stays far inside int
// range however long the literal. Four fields keep it in registers.
type decimal struct {
	mant  uint64
	exp10 int
	neg   bool
	trunc bool
}

// number moves over one RFC 8259 number literal, collecting its digits and
// decimal exponent on the way, and reports whether it has neither fraction
// nor exponent.
func (s *scanner) number() (d decimal, integral bool, err error) {
	b, i := s.b, s.i
	d.neg, integral = i < len(b) && b[i] == '-', true
	if d.neg {
		i++
	}
	lo := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		// Most integer parts are one digit ("3", "7.25"): no call for those.
		d.mant = uint64(b[i] - '0')
		if i++; i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i, d.mant = digits(b, i, d.mant)
		}
	case s.peek() == 'n':
		return d, false, s.fail("null array element")
	default:
		s.i = i
		return d, false, s.fail("want a number")
	}
	nd := i - lo // digits folded into mant
	if i < len(b) && b[i] == '.' {
		integral = false
		frac := i + 1
		if i, d.mant = digits(b, frac, d.mant); i == frac {
			s.i = i
			return d, false, s.fail("want a digit after '.'")
		}
		d.exp10 = frac - i
		nd += i - frac
	}
	if nd > maxMantDigits { // mant has wrapped, unless the extra digits lead ("0.000…")
		for j := lo; j < i && (b[j] == '0' || b[j] == '.'); j++ {
			if b[j] == '0' {
				nd--
			}
		}
		d.trunc = nd > maxMantDigits
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		integral = false
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // strconv stops here too, so a longer exponent reads as it does
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == exp {
			s.i = i
			return d, false, s.fail("want a digit in the exponent")
		}
		if neg {
			e = -e
		}
		d.exp10 += e
	}
	s.i = i
	return d, integral, nil
}

// digits moves i over a run of decimal digits, folding each into mant
// (modulo 2^64: the caller counts them). Eight at a time while they last.
func digits(b []byte, i int, mant uint64) (int, uint64) {
	const zeros, high = 0x3030303030303030, 0xF0F0F0F0F0F0F0F0
	for ; len(b)-i >= 8; i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if v&high != zeros || (v+0x0606060606060606)&high != zeros { // not eight of '0'…'9'
			break
		}
		// Pairs, then quads, then the eight: v's first byte is the top digit.
		v -= zeros
		v = v*10 + v>>8
		v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		mant = mant*1e8 + v
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	return i, mant
}

// float reads one number, bit-identical to encoding/json's. The digits the
// grammar pass collected go through Eisel–Lemire; what it cannot settle —
// more than 19 significant digits, an exponent outside its table, a rounding
// the 128-bit product leaves open, a subnormal or overflowing result — goes
// to strconv.ParseFloat on the literal, whose range error rejects the value.
func (s *scanner) float() (float64, error) {
	lo := s.i
	d, _, err := s.number()
	if err != nil {
		return 0, err
	}
	if !d.trunc {
		if v, ok := eiselLemire(d.mant, d.exp10, d.neg); ok {
			return v, nil
		}
	}
	// The conversion does not escape, so literals up to 32 bytes (every
	// shortest-form float64) are parsed without touching the heap.
	v, err := strconv.ParseFloat(string(s.b[lo:s.i]), 64)
	if err != nil {
		s.i = lo
		return 0, s.fail("number out of float64 range")
	}
	return v, nil
}

func (s *scanner) integer() (int64, error) {
	lo := s.i
	_, integral, err := s.number()
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

// array opens an array and reports whether it is empty (and then closed).
func (s *scanner) array() (empty bool, err error) {
	switch s.peek() {
	case '[':
	case 'n': // a null member never gets here, so this is a row
		return false, s.fail("null array element")
	default:
		return false, s.fail("want an array")
	}
	s.i++
	s.space()
	if s.peek() == ']' {
		s.i++
		return true, nil
	}
	return false, nil
}

// more moves past an element's separator; done is true at the closing bracket.
func (s *scanner) more() (done bool, err error) {
	s.space()
	switch s.peek() {
	case ',':
		s.i++
		s.space()
		return false, nil
	case ']':
		s.i++
		return true, nil
	}
	return false, s.fail("want ',' or ']'")
}

// floats appends an array of numbers onto dst. Like encoding/json, an empty
// array yields an empty non-nil slice.
func (s *scanner) floats(dst []float64) ([]float64, error) {
	empty, err := s.array()
	if empty && dst == nil {
		dst = []float64{}
	}
	for done := empty; !done && err == nil; {
		var v float64
		if v, err = s.float(); err == nil {
			dst = append(dst, v)
			done, err = s.more()
		}
	}
	return dst, err
}

// matrix appends an array of number arrays onto dst, reusing the rows beyond
// len(dst) that an earlier decode left in its backing array.
func (s *scanner) matrix(dst [][]float64) ([][]float64, error) {
	empty, err := s.array()
	if empty && dst == nil {
		dst = [][]float64{}
	}
	for done := empty; !done && err == nil; {
		var row []float64
		if n := len(dst); n < cap(dst) {
			row = dst[:n+1][n][:0]
		} else if n > 0 {
			row = make([]float64, 0, len(dst[n-1])) // rows are one length in practice
		}
		if row, err = s.floats(row); err == nil {
			dst = append(dst, row)
			done, err = s.more()
		}
	}
	return dst, err
}

func (s *scanner) ints() ([]int, error) {
	empty, err := s.array()
	dst := []int{}
	for done := empty; !done && err == nil; {
		var v int64
		if v, err = s.integer(); err == nil {
			if int64(int(v)) != v {
				return nil, s.fail("integer out of int range")
			}
			dst = append(dst, int(v))
			done, err = s.more()
		}
	}
	return dst, err
}

func (s *scanner) boolean() (bool, error) {
	switch s.peek() {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	}
	return false, s.fail("want true or false")
}

// str reads a string value. The allocator names decode without allocating.
func (s *scanner) str() (string, error) {
	lo := s.i
	if err := s.skipString(); err != nil {
		return "", err
	}
	raw := s.b[lo+1 : s.i-1]
	switch string(raw) {
	case "":
		return "", nil
	case "auto":
		return "auto", nil
	case "crl":
		return "crl", nil
	case "dcta":
		return "dcta", nil
	}
	return unquote(raw), nil
}

// skipString moves over one string, checking what encoding/json's scanner
// checks: no raw control characters, only the RFC's escape sequences.
func (s *scanner) skipString() error {
	if s.peek() != '"' {
		return s.fail("want a string")
	}
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return nil
		case c < ' ':
			return s.fail("control character in a string")
		case c == '\\':
			s.i++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(s.b[s.i+1:]) < 0 {
					return s.fail(`want four hex digits after \u`)
				}
				s.i += 4
			default:
				return s.fail("unknown escape sequence")
			}
		}
	}
	return s.fail("unterminated string")
}

// hex4 decodes four leading hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			c = (c | 0x20) - 'a' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes the inside of a string skipString accepted, the way
// encoding/json does: escapes resolved, surrogate pairs joined, each invalid
// UTF-8 byte and each unpaired surrogate replaced by U+FFFD.
func unquote(raw []byte) string {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i += 2
			switch e := raw[i-1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(raw[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					pair := unicode.ReplacementChar
					if len(raw)-i >= 6 && raw[i] == '\\' && raw[i+1] == 'u' {
						pair = utf16.DecodeRune(r, hex4(raw[i+2:]))
					}
					if r = pair; pair != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default: // '"', '\\', '/'
				out = append(out, e)
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return string(out)
}

// maxSkipDepth bounds how deep skip follows nesting. No member of either
// grammar nests deeper than two, so a deeper value is one the decoder rejects.
const maxSkipDepth = 16

// skip moves over one value of any type, checking that it is well formed.
func (s *scanner) skip(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		return s.skipString()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '[' && depth < maxSkipDepth:
		empty, err := s.array()
		for done := empty; !done && err == nil; {
			if err = s.skip(depth + 1); err == nil {
				done, err = s.more()
			}
		}
		return err
	case c == '{' && depth < maxSkipDepth:
		s.i++
		s.space()
		if s.peek() == '}' {
			s.i++
			return nil
		}
		for {
			if err := s.skipString(); err != nil {
				return err
			}
			s.space()
			if s.peek() != ':' {
				return s.fail("want ':'")
			}
			s.i++
			s.space()
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			s.space()
			switch s.peek() {
			case ',':
				s.i++
				s.space()
			case '}':
				s.i++
				return nil
			default:
				return s.fail("want ',' or '}'")
			}
		}
	case c == '[' || c == '{':
		return s.fail("value nested too deep")
	}
	_, _, err := s.number()
	return err
}
