package bits

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The per-bit decoders below are the definition of the doubling code's
// inverse, one pair and one WriteBit at a time. The word-at-a-time
// Decode, DecodeInts and ParseBin must agree with them exactly: the
// same parts and integers, or the same first error.

func refDecode(s String) ([]String, error) {
	parts := []String{}
	var cur Writer
	i := 0
	for i < s.n {
		if i+1 >= s.n {
			return nil, errors.New("bits: dangling bit in doubled encoding")
		}
		a, b := s.Bit(i), s.Bit(i+1)
		switch {
		case a == b:
			cur.WriteBit(a)
		case !a && b: // 01: separator
			parts = append(parts, cur.String())
			cur = Writer{}
		default: // 10: invalid
			return nil, fmt.Errorf("bits: invalid pair 10 at offset %d", i)
		}
		i += 2
	}
	parts = append(parts, cur.String())
	return parts, nil
}

func refParseBin(s String) (int, error) {
	if s.n == 0 {
		return 0, errors.New("bits: empty string is not a number")
	}
	if s.n > 62 {
		return 0, fmt.Errorf("bits: number of %d bits overflows int", s.n)
	}
	x := 0
	for i := 0; i < s.n; i++ {
		x <<= 1
		if s.Bit(i) {
			x |= 1
		}
	}
	return x, nil
}

func refDecodeInts(s String) ([]int, error) {
	parts, err := refDecode(s)
	if err != nil {
		return nil, err
	}
	xs := make([]int, len(parts))
	for i, p := range parts {
		x, err := refParseBin(p)
		if err != nil {
			return nil, fmt.Errorf("bits: part %d: %w", i, err)
		}
		xs[i] = x
	}
	return xs, nil
}

// fromBytes returns the first n bits of data as a String, with the
// unused low bits of the last byte cleared as every constructor leaves
// them.
func fromBytes(data []byte, n int) String {
	b := append([]byte(nil), data[:(n+7)>>3]...)
	if n&7 != 0 {
		b[len(b)-1] &= 0xff << uint(8-n&7)
	}
	return String{b: b, n: n}
}

// repairPairs turns every 10 pair of s into 11, so a random string
// becomes a valid encoding (up to a dangling last bit) with random
// digits and separators.
func repairPairs(s String) String {
	var w Writer
	for i := 0; i < s.n; i++ {
		b := s.Bit(i)
		if i&1 == 1 && s.Bit(i-1) {
			b = true
		}
		w.WriteBit(b)
	}
	return w.String()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstReference fails t unless Decode, DecodeInts and ParseBin
// agree with their per-bit references on s.
func checkAgainstReference(t *testing.T, s String) {
	t.Helper()
	parts, err := Decode(s)
	wantParts, wantErr := refDecode(s)
	if errText(err) != errText(wantErr) {
		t.Fatalf("Decode(%v): error %q, reference %q", s, errText(err), errText(wantErr))
	}
	if len(parts) != len(wantParts) {
		t.Fatalf("Decode(%v): %d parts, reference %d", s, len(parts), len(wantParts))
	}
	for i := range parts {
		if !Equal(parts[i], wantParts[i]) {
			t.Fatalf("Decode(%v): part %d = %v, reference %v", s, i, parts[i], wantParts[i])
		}
	}
	xs, err := DecodeInts(s)
	wantXs, wantErr := refDecodeInts(s)
	if errText(err) != errText(wantErr) {
		t.Fatalf("DecodeInts(%v): error %q, reference %q", s, errText(err), errText(wantErr))
	}
	if fmt.Sprint(xs) != fmt.Sprint(wantXs) {
		t.Fatalf("DecodeInts(%v) = %v, reference %v", s, xs, wantXs)
	}
	x, err := ParseBin(s)
	wantX, wantErr := refParseBin(s)
	if errText(err) != errText(wantErr) || x != wantX {
		t.Fatalf("ParseBin(%v) = %d, %q; reference %d, %q", s, x, errText(err), wantX, errText(wantErr))
	}
}

// Random encodings of every length up to a few words, each checked
// valid, with one bit flipped (a 10 pair, a split or merged part) and
// cut short by one bit (a dangling bit), so every error kind and every
// word alignment of parts, separators and faults is compared.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(12)
		xs := make([]int, k)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = rng.Intn(4)
			case 1:
				xs[i] = rng.Intn(1 << 20)
			default:
				xs[i] = int(rng.Int63() >> uint(rng.Intn(63)))
			}
		}
		enc := ConcatInts(xs...)
		checkAgainstReference(t, enc)
		checkAgainstReference(t, fromBytes(enc.b, enc.n-1))
		var w Writer
		w.WriteString(enc)
		flipped := w.String()
		flipped.b[rng.Intn(enc.n)>>3] ^= 1 << uint(rng.Intn(8))
		checkAgainstReference(t, fromBytes(flipped.b, flipped.n))
	}
	for n := 0; n <= 200; n++ {
		data := make([]byte, (n+7)>>3)
		rng.Read(data)
		s := fromBytes(data, n)
		checkAgainstReference(t, s)
		checkAgainstReference(t, repairPairs(s))
	}
	// Digit counts on both sides of the 62-digit limit, with leading
	// zeros, and parts over 62 digits before and after a 10 pair.
	for _, d := range []int{61, 62, 63, 64, 100} {
		var w Writer
		for i := 0; i < d; i++ {
			w.WriteBit(i%5 == 4)
		}
		long := w.String()
		checkAgainstReference(t, Concat(Bin(3), long, Bin(1)))
		checkAgainstReference(t, Concat(long, New(""), Bin(9)))
		bad := Concat(long, Bin(5))
		var b Writer
		b.WriteString(bad)
		b.WriteBits(0b10, 2)
		checkAgainstReference(t, b.String())
	}
}

// FuzzDoublingDecode compares the word-at-a-time decoders with the
// per-bit reference on arbitrary bits, of any length (cut drops up to
// seven bits from the end), and on the same bits with their 10 pairs
// repaired into a valid encoding.
func FuzzDoublingDecode(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x34}, uint8(0))                   // Concat((01), (00))'s prefix
	f.Add([]byte{0x0f, 0x33, 0xc3, 0x00}, uint8(1)) // dangling bit
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		n := 8*len(data) - int(cut%8)
		if n < 0 {
			n = 0
		}
		s := fromBytes(data, n)
		checkAgainstReference(t, s)
		checkAgainstReference(t, repairPairs(s))
	})
}

func TestParse(t *testing.T) {
	for n := 0; n <= 40; n++ {
		var text []byte
		var w Writer
		for i := 0; i < n; i++ {
			c := byte('0')
			if (i*7+n)%3 == 0 {
				c = '1'
			}
			w.WriteBit(c == '1')
			text = append(text, c)
		}
		got, err := Parse(string(text))
		if err != nil || !Equal(got, w.String()) {
			t.Fatalf("Parse(%q) = %v, %v; want %v", text, got, err, w.String())
		}
	}
	for _, c := range []struct{ in, want string }{
		{"01x", `bits: invalid character 'x' at offset 2`},
		{"0101010101x", `bits: invalid character 'x' at offset 10`},
		{"01010/01", `bits: invalid character '/' at offset 5`},
		{"0000000011111111 ", `bits: invalid character ' ' at offset 16`},
		{"0é", `bits: invalid character 'é' at offset 1`},
		{"2", `bits: invalid character '2' at offset 0`},
	} {
		if _, err := Parse(c.in); errText(err) != c.want {
			t.Errorf("Parse(%q) error %q, want %q", c.in, errText(err), c.want)
		}
	}
}
