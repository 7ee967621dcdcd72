package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"math/big"
	"math/rand"
	"testing"
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
	gTable := NewFixedBaseTable(NewGeneratorPoint())
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
		if got := new(Point).VarTimeDoubleFixedBaseMult(&zero, gTable, &a).Bytes(); !bytes.Equal(got, pub) {
			t.Fatalf("[a]B via basepoint comb = %x, stdlib public key %x", got, pub)
		}
		if got := new(Point).VarTimeDoubleFixedBaseMult(&a, gTable, &zero).Bytes(); !bytes.Equal(got, pub) {
			t.Fatalf("[a]B via a built table = %x, stdlib public key %x", got, pub)
		}
	}
}

// TestVarTimeDoubleFixedBaseMult compares a*A + b*B with the naive
// reference for random points and scalars, including the extremes.
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
		table := NewFixedBaseTable(A)
		cases := [][2][32]byte{{zero, zero}, {one, zero}, {zero, one}, {top, top}}
		for j := 0; j < 4; j++ {
			cases = append(cases, [2][32]byte{randScalar(rng), randScalar(rng)})
		}
		for _, c := range cases {
			a, b := c[0], c[1]
			got := new(Point).VarTimeDoubleFixedBaseMult(&a, table, &b).Bytes()
			want := new(Point).Add(naiveMult(&a, A), naiveMult(&b, NewGeneratorPoint())).Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("a=%x b=%x: comb %x, reference %x", a, b, got, want)
			}
		}
	}
}

// TestSignedRadix16 checks the digits are in range and sum back to the
// scalar.
func TestSignedRadix16(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		s := randScalar(rng)
		digits := signedRadix16(&s)
		sum := new(big.Int)
		for j := 63; j >= 0; j-- {
			if digits[j] < -8 || digits[j] > 8 {
				t.Fatalf("digit %d = %d out of range", j, digits[j])
			}
			sum.Lsh(sum, 4)
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
}
