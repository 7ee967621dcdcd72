package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/edwards25519/field"
)

// naiveMult is the reference scalar multiplication: double-and-add over
// the bits of the 32-byte little-endian scalar s, using only Point.Add.
func naiveMult(s *[32]byte, p *Point) *Point {
	acc := NewIdentityPoint()
	for i := 255; i >= 0; i-- {
		acc.Add(acc, acc)
		if s[i/8]>>(i%8)&1 == 1 {
			acc.Add(acc, p)
		}
	}
	return acc
}

func randScalar(rng *rand.Rand) [32]byte {
	var s [32]byte
	rng.Read(s[:])
	s[31] &= 127
	return s
}

// TestBasepointMatchesStdlib anchors the comb to crypto/ed25519: a public
// key is [a]B for the clamped hash of its seed.
func TestBasepointMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var zero [32]byte
	gTable := NewCombTable(NewGeneratorPoint())
	for i := 0; i < 20; i++ {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		pub := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		h := sha512.Sum512(seed)
		var a [32]byte
		copy(a[:], h[:32])
		a[0] &= 248
		a[31] &= 63
		a[31] |= 64
		if got := new(Point).VarTimeDoubleCombMult(&zero, gTable, &a).Bytes(); !bytes.Equal(got, pub) {
			t.Fatalf("[a]B via basepoint comb = %x, stdlib public key %x", got, pub)
		}
		if got := new(Point).VarTimeDoubleCombMult(&a, gTable, &zero).Bytes(); !bytes.Equal(got, pub) {
			t.Fatalf("[a]B via a built table = %x, stdlib public key %x", got, pub)
		}
	}
}

// TestVarTimeDoubleFixedBaseMult compares the radix-256 comb's a*A + b*B
// (VarTimeDoubleCombMult) with the naive reference for random points and
// scalars, including the extremes: top's digits end in a carry into a top
// digit of 128, the last entry of a row.
func TestVarTimeDoubleFixedBaseMult(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var zero, one, top [32]byte
	one[0] = 1
	for i := range top {
		top[i] = 0xff
	}
	top[31] = 127
	for i := 0; i < 8; i++ {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		pub := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		A, err := new(Point).SetBytes(pub)
		if err != nil {
			t.Fatal(err)
		}
		table := NewCombTable(A)
		cases := [][2][32]byte{{zero, zero}, {one, zero}, {zero, one}, {top, top}}
		for j := 0; j < 4; j++ {
			cases = append(cases, [2][32]byte{randScalar(rng), randScalar(rng)})
		}
		for _, c := range cases {
			a, b := c[0], c[1]
			got := new(Point).VarTimeDoubleCombMult(&a, table, &b).Bytes()
			want := new(Point).Add(naiveMult(&a, A), naiveMult(&b, NewGeneratorPoint())).Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("a=%x b=%x: comb %x, reference %x", a, b, got, want)
			}
		}
	}
}

// TestSignedRadix256 checks the digits are in range and sum back to the
// scalar, for random scalars and for ones whose carries ripple into the
// top digit, up to its maximum of 128.
func TestSignedRadix256(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var top, half [32]byte
	for i := range top {
		top[i] = 0xff
	}
	top[31] = 127
	half[0] = 128
	scalars := [][32]byte{top, half}
	for i := 0; i < 200; i++ {
		scalars = append(scalars, randScalar(rng))
	}
	for _, s := range scalars {
		digits := signedRadix256(&s)
		sum := new(big.Int)
		for j := 31; j >= 0; j-- {
			lo, hi := int16(-128), int16(127)
			if j == 31 {
				lo, hi = 0, 128
			}
			if digits[j] < lo || digits[j] > hi {
				t.Fatalf("scalar %x: digit %d = %d out of [%d, %d]", s, j, digits[j], lo, hi)
			}
			sum.Lsh(sum, 8)
			sum.Add(sum, big.NewInt(int64(digits[j])))
		}
		be := make([]byte, 32)
		for j := range s {
			be[31-j] = s[j]
		}
		if want := new(big.Int).SetBytes(be); sum.Cmp(want) != 0 {
			t.Fatalf("digits sum to %v, want %v", sum, want)
		}
	}
	if d := signedRadix256(&top); d[31] != 128 {
		t.Fatalf("top digit of %x = %d, want a carry into 128", top, d[31])
	}
}

// TestBatchBytesMatchesBytes is the differential test of BatchBytes
// against per-point Bytes: random multiples of the generator (arbitrary
// Z), their negations, the identity and the other point with x = 0
// (0, −1), in runs shorter than, equal to and longer than batchChunk so
// the chunked walk is covered, and a run holding a zero-Z value, which
// takes the one-at-a-time fallback.
func TestBatchBytesMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var zero [32]byte
	minusOne, err := new(Point).SetBytes(mustDecodeHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"))
	if err != nil {
		t.Fatal(err)
	}
	var ps []Point
	for len(ps) < 3*batchChunk+5 {
		s := randScalar(rng)
		p := new(Point).VarTimeDoubleCombMult(&zero, basepointComb(), &s)
		ps = append(ps, *p, *new(Point).Negate(p))
		switch len(ps) % 7 {
		case 0:
			ps = append(ps, *NewIdentityPoint())
		case 3:
			// (0, −1) as a sum, so its Z is not 1.
			ps = append(ps, *new(Point).Add(minusOne, NewIdentityPoint()))
		}
	}
	for _, n := range []int{0, 1, 2, 6, batchChunk, batchChunk + 1, len(ps)} {
		out := make([][32]byte, n)
		BatchBytes(out, ps[:n])
		for i := range out {
			if want := ps[i].Bytes(); !bytes.Equal(out[i][:], want) {
				t.Fatalf("n=%d point %d: batch %x, Bytes %x", n, i, out[i], want)
			}
		}
	}

	zeroZ := make([]Point, 5)
	copy(zeroZ, ps)
	zeroZ[2].z = field.Element{}
	out := make([][32]byte, len(zeroZ))
	BatchBytes(out, zeroZ)
	for i := range out {
		if want := zeroZ[i].Bytes(); !bytes.Equal(out[i][:], want) {
			t.Fatalf("zero-Z run, point %d: batch %x, Bytes %x", i, out[i], want)
		}
	}
}

func mustDecodeHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// BenchmarkNewCombTable measures one comb build, which every registry key
// pays once (part of cluster set-up).
func BenchmarkNewCombTable(b *testing.B) {
	q := NewGeneratorPoint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewCombTable(q)
	}
}

// BenchmarkVarTimeDoubleCombMult measures the comb at the heart of one
// signature check.
func BenchmarkVarTimeDoubleCombMult(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	table := NewCombTable(NewGeneratorPoint())
	x, y := randScalar(rng), randScalar(rng)
	v := new(Point)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.VarTimeDoubleCombMult(&x, table, &y)
	}
}
