// Package bits implements binary strings and the encoding primitives used
// by the advice construction of Dieudonné & Pelc: binary representations
// bin(x) of non-negative integers, and the self-delimiting "doubling"
// code Concat/Decode of Section 3, which encodes a sequence of binary
// substrings (A1, ..., Ak) by doubling each digit of each substring and
// inserting the separator 01 between consecutive substrings.
//
// The size of advice reported throughout this repository is the length in
// bits of strings produced by this package, so the constants match the
// paper's accounting exactly.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
	"strings"
	"unicode/utf8"
)

// String is an immutable sequence of bits. The zero value is the empty
// string. Bits are stored packed, eight per byte, most significant first
// within each byte.
type String struct {
	b []byte
	n int
}

// Parse returns the bit string spelled by a sequence of '0' and '1'
// characters, or an error naming the first other character. It packs
// eight characters into one byte per step, so reading an advice file
// of tens of megabits costs one pass over the text.
func Parse(s string) (String, error) {
	b := make([]byte, (len(s)+7)>>3)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i])<<56 | uint64(s[i+1])<<48 | uint64(s[i+2])<<40 | uint64(s[i+3])<<32 |
			uint64(s[i+4])<<24 | uint64(s[i+5])<<16 | uint64(s[i+6])<<8 | uint64(s[i+7])
		x ^= 0x3030303030303030 // '0' -> 0, '1' -> 1
		if x&0xfefefefefefefefe != 0 {
			break // a byte other than '0'/'1': the loop below locates it
		}
		// Gather bit 0 of each byte, first character most significant.
		b[i>>3] = byte(x * 0x0102040810204080 >> 56)
	}
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 1 {
			r, _ := utf8.DecodeRuneInString(s[i:])
			return String{}, fmt.Errorf("bits: invalid character %q at offset %d", r, i)
		}
		b[i>>3] |= c << (7 - uint(i&7))
	}
	return String{b: b, n: len(s)}, nil
}

// New is Parse for literals: it panics on any character other than '0'
// and '1'.
func New(s string) String {
	b, err := Parse(s)
	if err != nil {
		panic(fmt.Sprintf("bits.New: %v", err))
	}
	return b
}

// Len returns the number of bits in s.
func (s String) Len() int { return s.n }

// Bit returns the i-th bit of s, 0-indexed. It panics if i is out of range.
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
	return s.b[i>>3]&(1<<(7-uint(i&7))) != 0
}

// Bit1 returns the j-th bit of s using the paper's 1-based indexing, and
// false when j exceeds the length (a convention used by trie queries so
// that out-of-range queries deterministically answer "bit is 0").
func (s String) Bit1(j int) bool {
	if j < 1 || j > s.n {
		return false
	}
	return s.Bit(j - 1)
}

// String renders s as a sequence of '0' and '1' characters.
func (s String) String() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Equal reports whether s and t contain the same bits.
func Equal(s, t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.b {
		if s.b[i] != t.b[i] {
			return false
		}
	}
	return true
}

// FirstDiff returns the smallest 0-based index at which s and t
// disagree, comparing only the common prefix of the two strings; it
// returns -1 when they agree on the first min(Len) bits. It scans whole
// bytes, so finding the discriminating bit of two long encodings does
// not walk them bit by bit (the depth-1 trie construction of BuildTrie
// is the caller that cares).
func FirstDiff(s, t String) int {
	n := s.n
	if t.n < n {
		n = t.n
	}
	nb := (n + 7) >> 3
	for k := 0; k < nb; k++ {
		if x := s.b[k] ^ t.b[k]; x != 0 {
			// Bits past position n-1 in the last byte may differ only
			// because one string ends there; they do not count.
			if i := k<<3 + mathbits.LeadingZeros8(x); i < n {
				return i
			}
			return -1
		}
	}
	return -1
}

// Compare orders bit strings lexicographically, with a proper prefix
// ordered before any of its extensions. It returns -1, 0 or +1.
func Compare(s, t String) int {
	n := s.n
	if t.n < n {
		n = t.n
	}
	for i := 0; i < n; i++ {
		sb, tb := s.Bit(i), t.Bit(i)
		if sb != tb {
			if tb {
				return -1
			}
			return 1
		}
	}
	switch {
	case s.n < t.n:
		return -1
	case s.n > t.n:
		return 1
	}
	return 0
}

// Writer incrementally builds a bit string. The zero value is ready to use.
type Writer struct {
	b []byte
	n int
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(bit bool) {
	if w.n&7 == 0 {
		w.b = append(w.b, 0)
	}
	if bit {
		w.b[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// WriteBits appends the n lowest bits of v, most significant of those
// first. It is the bulk form of WriteBit for encoders that assemble
// multi-bit patterns (doubled digits, separator pairs) in registers.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: WriteBits count %d out of range [0,64]", n))
	}
	for n > 0 {
		if w.n&7 == 0 {
			w.b = append(w.b, 0)
		}
		free := 8 - w.n&7
		take := free
		if n < take {
			take = n
		}
		chunk := byte(v>>uint(n-take)) & (1<<uint(take) - 1)
		w.b[w.n>>3] |= chunk << uint(free-take)
		w.n += take
		n -= take
	}
}

// WriteString appends all bits of s, whole bytes at a time.
func (w *Writer) WriteString(s String) {
	full := s.n >> 3
	for k := 0; k < full; k++ {
		w.WriteBits(uint64(s.b[k]), 8)
	}
	if rem := s.n & 7; rem > 0 {
		w.WriteBits(uint64(s.b[full]>>uint(8-rem)), rem)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// String returns the accumulated bits. The writer remains usable; the
// returned value is an independent snapshot.
func (w *Writer) String() String {
	b := make([]byte, len(w.b))
	copy(b, w.b)
	return String{b: b, n: w.n}
}

// Bin returns bin(x), the standard binary representation of the
// non-negative integer x with no leading zeros; bin(0) is the single bit 0.
func Bin(x int) String {
	if x < 0 {
		panic(fmt.Sprintf("bits.Bin: negative argument %d", x))
	}
	if x == 0 {
		return New("0")
	}
	hi := 0
	for 1<<(hi+1) <= x {
		hi++
	}
	var w Writer
	for i := hi; i >= 0; i-- {
		w.WriteBit(x&(1<<uint(i)) != 0)
	}
	return w.String()
}

// ParseBin inverts Bin. It accepts any non-empty bit string and interprets
// it as an unsigned binary number (leading zeros allowed, so it can parse
// substrings produced by other encoders too).
func ParseBin(s String) (int, error) {
	if err := binLenErr(s.n); err != nil {
		return 0, err
	}
	var x uint64
	for _, c := range s.b[:(s.n+7)>>3] {
		x = x<<8 | uint64(c)
	}
	return int(x >> uint(-s.n&7)), nil
}

// binLenErr is ParseBin's verdict on a number of n digits: empty or
// wider than an int holds.
func binLenErr(n int) error {
	switch {
	case n == 0:
		return errors.New("bits: empty string is not a number")
	case n > 62:
		return fmt.Errorf("bits: number of %d bits overflows int", n)
	}
	return nil
}

// Concat encodes the sequence of substrings (A1, ..., Ak) into a single
// self-delimiting binary string per Section 3 of the paper: every digit of
// every substring is doubled (0 -> 00, 1 -> 11) and the separator 01 is
// inserted between consecutive substrings. Decode inverts it exactly.
//
// Example: Concat((01), (00)) = 0011010000.
func Concat(parts ...String) String {
	var w Writer
	for i, p := range parts {
		if i > 0 {
			w.WriteBits(0b01, 2)
		}
		w.WriteDoubled(p)
	}
	return w.String()
}

// doubled[b] is the 16-bit doubling of the byte b: every bit of b,
// most significant first, written twice.
var doubled = func() (t [256]uint16) {
	for b := 0; b < 256; b++ {
		var d uint16
		for i := 7; i >= 0; i-- {
			d = d<<2 | uint16(b>>uint(i)&1)*3
		}
		t[b] = d
	}
	return
}()

// WriteDoubled appends every bit of p twice — the digit-doubling half
// of the Concat code — one source byte (16 output bits) at a time.
// Advice strings are tens of megabits at the scales the oracle runs at,
// so the doubling pass is table-driven rather than per-bit.
func (w *Writer) WriteDoubled(p String) {
	full := p.n >> 3
	for k := 0; k < full; k++ {
		w.WriteBits(uint64(doubled[p.b[k]]), 16)
	}
	if rem := p.n & 7; rem > 0 {
		// The low rem source bits map to the low 2·rem doubled bits.
		w.WriteBits(uint64(doubled[p.b[full]>>uint(8-rem)]), 2*rem)
	}
}

// Decode inverts Concat, recovering the original sequence of substrings.
// It returns an error if s is not a valid encoding. Note that Concat of a
// single empty string and Concat of no strings both produce the empty
// encoding; Decode of the empty string returns a single empty part, which
// is the convention used by the advice codecs in this repository.
//
// The parts share one buffer, allocated once at its final size; each
// starts on a byte boundary.
func Decode(s String) ([]String, error) {
	seps, err := scanPairs(s)
	if err != nil {
		return nil, err
	}
	parts := make([]String, 0, seps+1)
	// Each part takes its digits rounded up to whole bytes.
	out := packer{buf: make([]byte, 0, (s.n/2-seps)/8+seps+1)}
	for k := 0; k<<6 < s.n; k++ {
		v, sep, np := s.pairRuns(k)
		i := 0
		for sep != 0 {
			var p int
			p, sep = nextSep(sep)
			out.put(digits(v, i, p), p-i)
			parts = append(parts, out.part())
			i = p + 1
		}
		out.put(digits(v, i, np), np-i)
	}
	return append(parts, out.part()), nil
}

// packer appends bits to buf, collecting them 32 at a time in acc, and
// cuts buf into byte-aligned Strings.
type packer struct {
	buf   []byte
	acc   uint64 // pending bits: the low na of them
	na    int
	start int // buf offset of the open part
	nbits int // bits in the open part
}

// put appends the low k ≤ 32 bits of v, most significant first.
func (w *packer) put(v uint64, k int) {
	w.acc = w.acc<<uint(k) | v
	w.na += k
	w.nbits += k
	if w.na >= 32 {
		w.na -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>uint(w.na)))
	}
}

// part closes the open part, padding it to a whole byte, and returns it.
func (w *packer) part() String {
	for ; w.na >= 8; w.na -= 8 {
		w.buf = append(w.buf, byte(w.acc>>uint(w.na-8)))
	}
	if w.na > 0 {
		w.buf = append(w.buf, byte(w.acc<<uint(8-w.na)))
		w.na = 0
	}
	p := String{b: w.buf[w.start:len(w.buf):len(w.buf)], n: w.nbits}
	w.start, w.nbits = len(w.buf), 0
	return p
}

// pairLo selects the second bit of each of the 32 pairs of a word.
const pairLo = 0x5555555555555555

// pairWord returns the k-th 64-bit word of s, bits 64k..64k+63 with the
// first most significant, and the number np ≤ 32 of whole pairs of s it
// holds; the bits past those pairs read as zero (so as 00 pairs).
func (s String) pairWord(k int) (w uint64, np int) {
	np = min((s.n-k<<6)>>1, 32)
	if off := k << 3; off+8 <= len(s.b) {
		w = binary.BigEndian.Uint64(s.b[off:])
	} else {
		var tail [8]byte
		copy(tail[:], s.b[off:])
		w = binary.BigEndian.Uint64(tail[:])
	}
	return w &^ (1<<uint(64-2*np) - 1), np
}

// scanPairs checks that s is a well-formed doubled encoding — no pair
// 10 and no dangling last bit, reported in that order of precedence as
// a left-to-right scan meets them — and counts its 01 separators. The
// whole scan is a few word operations per 32 pairs.
func scanPairs(s String) (seps int, err error) {
	for k := 0; k<<6 < s.n; k++ {
		w, _ := s.pairWord(k)
		first, second := w>>1&pairLo, w&pairLo
		if bad := first &^ second; bad != 0 {
			// Pair j's second bit sits at 62-2j, after 2j+1 leading zeros.
			return 0, fmt.Errorf("bits: invalid pair 10 at offset %d", k<<6+mathbits.LeadingZeros64(bad)-1)
		}
		seps += mathbits.OnesCount64(second &^ first)
	}
	if s.n&1 != 0 {
		return 0, errors.New("bits: dangling bit in doubled encoding")
	}
	return seps, nil
}

// pairRuns reads word k of an encoding scanPairs accepted: bit 31-j of
// v is the digit of pair j, sep has bit 62-2j set when pair j is a
// separator, and np is the word's number of pairs. Within a valid
// encoding a pair's second bit is its digit, and the pair is a
// separator exactly when its first bit is 0 and its second 1.
func (s String) pairRuns(k int) (v, sep uint64, np int) {
	w, np := s.pairWord(k)
	return squeeze(w), ^w >> 1 & w & pairLo, np
}

// nextSep returns the index of the first separator pair in a non-zero
// pairRuns mask, and the mask without it.
func nextSep(sep uint64) (int, uint64) {
	lz := mathbits.LeadingZeros64(sep)
	return lz >> 1, sep &^ (1 << uint(63-lz))
}

// squeeze gathers the bits of x at the pairLo positions — one per pair
// — into the low 32 bits, first pair most significant.
func squeeze(x uint64) uint64 {
	x &= pairLo
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0x00000000ffffffff
}

// digits returns the digits of pairs [i, p) of a pairRuns word v, as
// the low p-i bits, first digit most significant.
func digits(v uint64, i, p int) uint64 {
	return v >> uint(32-p) & (1<<uint(p-i) - 1)
}

// ConcatInts encodes a sequence of non-negative integers as
// Concat(bin(x1), ..., bin(xk)). It is the flattening primitive used by
// the tree and trie codecs; the digits are written doubled directly
// instead of materializing one intermediate bin(x) string per integer
// (the advice tree alone flattens 4n+1 integers).
func ConcatInts(xs ...int) String {
	var w Writer
	for i, x := range xs {
		if i > 0 {
			w.WriteBits(0b01, 2)
		}
		w.WriteBinDoubled(x)
	}
	return w.String()
}

// WriteBinDoubled appends bin(x) with every digit doubled — one term of
// the Concat code, written without materializing bin(x).
func (w *Writer) WriteBinDoubled(x int) { w.WriteBinRepeated(x, 2) }

// WriteBinRepeated appends bin(x) with every digit written k times
// (k = 2 is one application of the doubling code, k = 4 two nested
// applications — the depth-1 view encoder's case).
func (w *Writer) WriteBinRepeated(x, k int) {
	if x < 0 {
		panic(fmt.Sprintf("bits.Bin: negative argument %d", x))
	}
	ones := uint64(1)<<uint(k) - 1
	if x == 0 {
		w.WriteBits(0, k)
		return
	}
	for i := mathbits.Len(uint(x)) - 1; i >= 0; i-- {
		if x>>uint(i)&1 == 1 {
			w.WriteBits(ones, k)
		} else {
			w.WriteBits(0, k)
		}
	}
}

// DecodeInts inverts ConcatInts. It parses the integers straight from
// the doubled stream into one slice sized by the separator count, with
// no intermediate String per integer. A malformed encoding is reported
// before any bad integer, and the first bad integer (empty, or over 62
// digits) before later ones.
func DecodeInts(s String) ([]int, error) {
	seps, err := scanPairs(s)
	if err != nil {
		return nil, err
	}
	xs := make([]int, 0, seps+1)
	var x uint64
	nd := 0 // digits of x
	for k := 0; k<<6 < s.n; k++ {
		v, sep, np := s.pairRuns(k)
		i := 0
		for sep != 0 {
			var p int
			p, sep = nextSep(sep)
			x = x<<uint(p-i) | digits(v, i, p)
			if err := binLenErr(nd + p - i); err != nil {
				return nil, fmt.Errorf("bits: part %d: %w", len(xs), err)
			}
			xs = append(xs, int(x))
			x, nd = 0, 0
			i = p + 1
		}
		x = x<<uint(np-i) | digits(v, i, np)
		nd += np - i
	}
	if err := binLenErr(nd); err != nil {
		return nil, fmt.Errorf("bits: part %d: %w", len(xs), err)
	}
	return append(xs, int(x)), nil
}
