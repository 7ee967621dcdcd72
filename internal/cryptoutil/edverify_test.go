package cryptoutil

import (
	"crypto/ed25519"
	"encoding/hex"
	"flag"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

var verifyCases = flag.Int("verifycases", 2000, "random cases TestVerifyMatchesStdlib compares against crypto/ed25519")

const diffKeys = 4

// stdVerify is the reference: crypto/ed25519.Verify over the same digest
// Registry.Verify checks.
func stdVerify(reg *Registry, signer int32, payload, sig []byte) bool {
	d := digest(payload)
	return ed25519.Verify(reg.keys[signer].pub, d[:], sig)
}

// leInt decodes a little-endian integer.
func leInt(b []byte) *big.Int {
	return new(scalarTemps).setLE(new(big.Int), b)
}

// leBytes32 encodes x (below 2^256) as 32 little-endian bytes.
func leBytes32(x *big.Int) []byte {
	out := x.FillBytes(make([]byte, 32))
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// verifySeeds is the differential seed corpus: a valid signature, every
// single-bit flip of it, non-canonical S (L, L+1, S+L), non-canonical and
// small-order R, wrong lengths, a wrong key and the high bits of sig[63].
type verifySeed struct {
	signer  uint8
	payload []byte
	sig     []byte
}

func verifySeeds(reg *Registry) []verifySeed {
	payload := []byte("basil st1 reply")
	valid := reg.Signer(0).Sign(payload)
	withSig := func(sig []byte) verifySeed { return verifySeed{0, payload, sig} }
	withS := func(s []byte) verifySeed { return withSig(append(append([]byte{}, valid[:32]...), s...)) }
	withR := func(r []byte) verifySeed { return withSig(append(append([]byte{}, r...), valid[32:]...)) }

	seeds := []verifySeed{withSig(valid)}
	for bit := 0; bit < 8*len(valid); bit++ {
		sig := append([]byte{}, valid...)
		sig[bit/8] ^= 1 << (bit % 8)
		seeds = append(seeds, withSig(sig))
	}
	s := leInt(valid[32:])
	seeds = append(seeds,
		withS(leBytes32(groupOrder)),
		withS(leBytes32(new(big.Int).Add(groupOrder, big.NewInt(1)))),
		withS(leBytes32(new(big.Int).Add(s, groupOrder))), // same equation mod L
	)
	for _, r := range []string{
		"0100000000000000000000000000000000000000000000000000000000000000", // identity
		"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // identity, y = p+1
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 2
		"0000000000000000000000000000000000000000000000000000000000000000", // order 4
		"0000000000000000000000000000000000000000000000000000000000000080", // order 4, sign set
		"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
		"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", // order 8
		"0100000000000000000000000000000000000000000000000000000000000080", // x = 0 with sign set
	} {
		seeds = append(seeds, withR(mustHex(r)))
	}
	seeds = append(seeds,
		withSig(valid[:63]),
		withSig(append(append([]byte{}, valid...), 0)),
		verifySeed{1, payload, valid}, // wrong key
	)
	for _, hi := range []byte{0x20, 0x40, 0x80, 0xe0} {
		sig := append([]byte{}, valid...)
		sig[63] |= hi
		seeds = append(seeds, withSig(sig))
	}
	return seeds
}

// FuzzVerify checks that the expanded-key verifier accepts exactly what
// crypto/ed25519.Verify accepts. `go test` runs the seed corpus; run
// `go test -run '^$' -fuzz FuzzVerify ./internal/cryptoutil/` to explore.
func FuzzVerify(f *testing.F) {
	reg := NewRegistry(SchemeEd25519, diffKeys, 7)
	for _, s := range verifySeeds(reg) {
		f.Add(s.signer, s.payload, s.sig)
	}
	f.Fuzz(func(t *testing.T, signer uint8, payload, sig []byte) {
		id := int32(signer % diffKeys)
		want := stdVerify(reg, id, payload, sig)
		if got := reg.Verify(id, payload, sig); got != want {
			t.Fatalf("signer %d payload %x sig %x: expanded %v, stdlib %v", id, payload, sig, got, want)
		}
	})
}

// TestVerifySeedsExercised guards the corpus against going vacuous: the
// valid seed verifies and the malleated S+L seed is refused (the equation
// holds mod L, so only the canonical-S check rejects it).
func TestVerifySeedsExercised(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, diffKeys, 7)
	seeds := verifySeeds(reg)
	if s := seeds[0]; !reg.Verify(int32(s.signer), s.payload, s.sig) {
		t.Fatal("valid seed rejected")
	}
	accepted := 0
	for _, s := range seeds {
		if reg.Verify(int32(s.signer), s.payload, s.sig) {
			accepted++
		}
	}
	if accepted != 1 {
		t.Fatalf("%d seeds accepted, want only the valid one", accepted)
	}
}

// TestVerifyMatchesStdlib compares the two verifiers on random valid
// signatures and random mutations of them (-verifycases sets the count).
func TestVerifyMatchesStdlib(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, diffKeys, 11)
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for i := 0; i < *verifyCases; i++ {
		id := int32(rng.Intn(diffKeys))
		payload := make([]byte, 1+rng.Intn(64))
		rng.Read(payload)
		sig := reg.Signer(id).Sign(payload)
		switch rng.Intn(8) {
		case 1:
			bit := rng.Intn(512)
			sig[bit/8] ^= 1 << (bit % 8)
		case 2:
			bit := rng.Intn(8 * len(payload))
			payload[bit/8] ^= 1 << (bit % 8)
		case 3:
			rng.Read(sig[32:])
			if rng.Intn(2) == 0 {
				sig[63] &= 0x1f
			}
		case 4:
			copy(sig[32:], leBytes32(new(big.Int).Add(leInt(sig[32:]), groupOrder)))
		case 5:
			rng.Read(sig[:32])
		case 6:
			id = (id + 1) % diffKeys
		case 7:
			sig = sig[:rng.Intn(len(sig)+1)]
		}
		want := stdVerify(reg, id, payload, sig)
		if want {
			accepted++
		}
		if got := reg.Verify(id, payload, sig); got != want {
			t.Fatalf("case %d: signer %d payload %x sig %x: expanded %v, stdlib %v", i, id, payload, sig, got, want)
		}
	}
	if *verifyCases >= 100 && accepted == 0 {
		t.Fatal("no case verified; the comparison is vacuous")
	}
	t.Logf("%d cases, %d accepted by both, 0 mismatches", *verifyCases, accepted)
}

// TestVerifyConcurrentFirstUse has many goroutines make the first
// verifications of fresh keys at once, racing the lazy comb builds (run
// under -race by make test-race).
func TestVerifyConcurrentFirstUse(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, diffKeys, 13)
	payload := []byte("first use")
	sigs := make([][]byte, diffKeys)
	for i := range sigs {
		sigs[i] = reg.Signer(int32(i)).Sign(payload)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sigs {
				id := int32((g + i) % diffKeys)
				if !reg.Verify(id, payload, sigs[id]) {
					t.Errorf("signer %d rejected on first use", id)
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkRegistryVerify times one signature check by crypto/ed25519
// and by the registry's expanded key (table already built).
func BenchmarkRegistryVerify(b *testing.B) {
	reg := NewRegistry(SchemeEd25519, 1, 3)
	d := digest([]byte("payload"))
	sig := reg.Signer(0).(DigestSigner).SignDigest(d)
	if !reg.VerifyDigest(0, d, sig) {
		b.Fatal("signature rejected")
	}
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ed25519.Verify(reg.keys[0].pub, d[:], sig)
		}
	})
	b.Run("expanded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.VerifyDigest(0, d, sig)
		}
	})
}
