package cryptoutil

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"math/big"
	"sync"

	"repro/internal/edwards25519"
)

// expandedKey is one registry public key prepared for repeated
// verification. Registry keys are few (5f+1 replicas per shard plus the
// clients) and each is checked thousands of times, so the comb of −A is
// computed once — about 30 KiB and 1.5 ms, on the key's first
// verification — instead of re-deriving −A and running a variable-base
// scalar multiplication on every call as crypto/ed25519.Verify does.
type expandedKey struct {
	pub ed25519.PublicKey

	once sync.Once
	negA *edwards25519.FixedBaseTable // nil if pub is not a curve point
}

// table returns the comb of −A, building it on first use.
func (k *expandedKey) table() *edwards25519.FixedBaseTable {
	k.once.Do(func() {
		a, err := new(edwards25519.Point).SetBytes(k.pub)
		if err != nil {
			return
		}
		k.negA = edwards25519.NewFixedBaseTable(new(edwards25519.Point).Negate(a))
	})
	return k.negA
}

// groupOrder is L = 2^252 + 27742317777372353535851937790883648493, the
// order of the Ed25519 base point.
var groupOrder, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// scalarTemps holds one verification's math/big temporaries; pooled so
// the scalar arithmetic does not allocate on every check.
type scalarTemps struct {
	s, h, q, r big.Int
	be         [64]byte
}

var tempsPool = sync.Pool{New: func() any { return new(scalarTemps) }}

// setLE sets x to the little-endian integer b (at most 64 bytes), using
// sc.be for the byte reversal math/big needs, and returns x.
func (sc *scalarTemps) setLE(x *big.Int, b []byte) *big.Int {
	be := sc.be[:len(b)]
	for i, c := range b {
		be[len(b)-1-i] = c
	}
	return x.SetBytes(be)
}

// verify reports whether sig is an Ed25519 signature of the digest d
// under k. It accepts exactly the signatures crypto/ed25519.Verify
// accepts: length 64, the top three bits of sig[63] clear, S canonical
// (S < L), and the cofactorless equation [S]B = R + [k]A checked by
// comparing the encoding of [S]B + [k](−A) with the R bytes, where
// k = SHA-512(R‖A‖d) mod L.
func (k *expandedKey) verify(d *[32]byte, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 {
		return false
	}
	sc := tempsPool.Get().(*scalarTemps)
	defer tempsPool.Put(sc)
	if sc.setLE(&sc.s, sig[32:]).Cmp(groupOrder) >= 0 {
		return false
	}
	negA := k.table()
	if negA == nil {
		return false
	}
	var hin [96]byte
	copy(hin[:32], sig[:32])
	copy(hin[32:64], k.pub)
	copy(hin[64:], d[:])
	hram := sha512.Sum512(hin[:])
	sc.q.QuoRem(sc.setLE(&sc.h, hram[:]), groupOrder, &sc.r)

	var kBytes, sBytes [32]byte
	sc.r.FillBytes(kBytes[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		kBytes[i], kBytes[j] = kBytes[j], kBytes[i]
	}
	copy(sBytes[:], sig[32:])
	r := new(edwards25519.Point).VarTimeDoubleFixedBaseMult(&kBytes, negA, &sBytes)
	return bytes.Equal(sig[:32], r.Bytes())
}
