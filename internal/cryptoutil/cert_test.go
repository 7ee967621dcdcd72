package cryptoutil

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// certKeys is the size of the test certificates: 5f+1 votes for f = 1.
const certKeys = 6

// certFixture is a certificate of certKeys direct signatures, signer i
// over payloads[i].
type certFixture struct {
	reg      *Registry
	payloads [][]byte
	sigs     []types.Signature
}

func newCertFixture(seed int64) *certFixture {
	c := &certFixture{reg: NewRegistry(SchemeEd25519, certKeys, seed)}
	for i := int32(0); i < certKeys; i++ {
		p := []byte(fmt.Sprintf("basil/st1r/vote of replica %d", i))
		c.payloads = append(c.payloads, p)
		c.sigs = append(c.sigs, types.Signature{SignerID: i, Direct: c.reg.Signer(i).Sign(p)})
	}
	return c
}

// at serves sigs as VerifyCert's entries.
func (c *certFixture) at(sigs []types.Signature) CertSigs {
	return func(i int, buf []byte) ([]byte, *types.Signature) {
		return append(buf, c.payloads[i]...), &sigs[i]
	}
}

// stdAll is the reference: every signature passes crypto/ed25519.Verify.
func (c *certFixture) stdAll(sigs []types.Signature) bool {
	for i := range sigs {
		if !stdVerify(c.reg, sigs[i].SignerID, c.payloads[i], sigs[i].Direct[:]) {
			return false
		}
	}
	return true
}

// FuzzVerifyCert checks that a certificate check accepts a certificate
// with any subset of its signatures corrupted exactly when every
// signature passes crypto/ed25519.Verify, inline and through a pool. The
// bits of mask pick the corrupted signatures; each is XORed with flip
// from byte 0 on (R) or, with high set, from byte 32 on (S). `go test`
// runs the seeds, which reject a bad signature at each index; run
// `go test -run '^$' -fuzz FuzzVerifyCert ./internal/cryptoutil/` to
// explore.
func FuzzVerifyCert(f *testing.F) {
	c := newCertFixture(17)
	pool := NewVerifyPool(2)
	defer pool.Close()
	sv := NewSigVerifier(c.reg, 16)
	f.Add(uint8(0), []byte{1}, false, false)
	for i := 0; i < certKeys; i++ {
		f.Add(uint8(1)<<i, []byte{0x01}, false, i%2 == 0)
		f.Add(uint8(1)<<i, []byte{0, 0, 0, 0x80}, true, i%2 == 1)
	}
	f.Add(uint8(0x3f), []byte{0xff, 0xff}, true, true)
	f.Add(uint8(0x05), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x20}, true, false)
	f.Fuzz(func(t *testing.T, mask uint8, flip []byte, high, pooled bool) {
		sigs := append([]types.Signature(nil), c.sigs...)
		for i := range sigs {
			if mask&(1<<i) == 0 {
				continue
			}
			part := sigs[i].Direct[:32]
			if high {
				part = sigs[i].Direct[32:]
			}
			for j := range min(len(flip), len(part)) {
				part[j] ^= flip[j]
			}
		}
		p := pool
		if !pooled {
			p = nil
		}
		want := c.stdAll(sigs)
		if got := sv.VerifyCert(p, len(sigs), c.at(sigs)); got != want {
			t.Fatalf("mask %06b flip %x high %v pooled %v: VerifyCert %v, stdlib %v", mask, flip, high, pooled, got, want)
		}
	})
}

// TestVerifyCertRejectsEachIndex: a bad signature at any index fails the
// certificate, inline and pooled; a nil entry is not checked; and a
// passing check runs one comb per checked signature.
func TestVerifyCertRejectsEachIndex(t *testing.T) {
	c := newCertFixture(19)
	pool := NewVerifyPool(2)
	defer pool.Close()
	sv := NewSigVerifier(c.reg, 16)
	var checks atomic.Uint64
	sv.CountChecks(&checks)
	for _, p := range []*VerifyPool{nil, pool} {
		if !sv.VerifyCert(p, certKeys, c.at(c.sigs)) {
			t.Fatal("valid certificate rejected")
		}
		for i := range c.sigs {
			sigs := append([]types.Signature(nil), c.sigs...)
			sigs[i].Direct[40] ^= 4
			if sv.VerifyCert(p, certKeys, c.at(sigs)) {
				t.Fatalf("bad signature at index %d accepted (pool %v)", i, p != nil)
			}
		}
	}
	// A failed check leaves entry 2's comb result and R bytes in the
	// pooled scratch disagreeing; the vouched check must not read them.
	badR := append([]types.Signature(nil), c.sigs...)
	badR[2].Direct[3] ^= 8
	if sv.VerifyCert(nil, certKeys, c.at(badR)) {
		t.Fatal("bad R accepted")
	}
	checks.Store(0)
	vouched := func(i int, buf []byte) ([]byte, *types.Signature) {
		if i == 2 {
			return nil, nil
		}
		return c.at(c.sigs)(i, buf)
	}
	if !sv.VerifyCert(nil, certKeys, vouched) || checks.Load() != certKeys-1 {
		t.Fatalf("certificate with one vouched entry: %d checks, want %d", checks.Load(), certKeys-1)
	}
	if !NewSigVerifier(NewRegistry(SchemeNone, 0, 0), 1).VerifyCert(nil, certKeys, c.at(c.sigs)) {
		t.Fatal("SchemeNone rejected a certificate")
	}
}

// batchedCert returns certKeys signatures, each signer's over its payload
// in a Merkle batch of two (the other leaf a filler), so every entry
// checks a root.
func (c *certFixture) batchedCert(t *testing.T) []types.Signature {
	sigs := make([]types.Signature, certKeys)
	for i := range sigs {
		bs := NewBatchSigner(c.reg.Signer(int32(i)), 2, time.Hour)
		ch := make(chan types.Signature, 2)
		bs.Enqueue(c.payloads[i], func(s types.Signature) { ch <- s })
		bs.Enqueue([]byte("filler"), func(types.Signature) {})
		sigs[i] = <-ch
		bs.Close()
		if !sigs[i].IsBatched() {
			t.Fatal("batch signer produced a direct signature")
		}
	}
	return sigs
}

// TestVerifyCertBatched: batched signatures check their proof and root
// like Verify, and a verified root is cached for the next certificate.
func TestVerifyCertBatched(t *testing.T) {
	c := newCertFixture(23)
	sv := NewSigVerifier(c.reg, 64)
	var checks atomic.Uint64
	sv.CountChecks(&checks)
	sigs := c.batchedCert(t)
	mixed := append([]types.Signature(nil), sigs...)
	mixed[0] = c.sigs[0]
	if !sv.VerifyCert(nil, certKeys, c.at(mixed)) || checks.Load() != certKeys {
		t.Fatalf("mixed certificate: %d checks, want %d and acceptance", checks.Load(), certKeys)
	}
	if !sv.VerifyCert(nil, certKeys, c.at(sigs)) || checks.Load() != certKeys+1 {
		t.Fatalf("cached roots: %d checks in all, want %d", checks.Load(), certKeys+1)
	}
	bad := append([]types.Signature(nil), sigs...)
	proof := *bad[3].Batch
	proof.Index ^= 1
	bad[3].Batch = &proof
	if sv.VerifyCert(nil, certKeys, c.at(bad)) {
		t.Fatal("wrong inclusion proof accepted")
	}
	badRoot := append([]types.Signature(nil), sigs...)
	fresh := NewSigVerifier(c.reg, 64)
	rootSig := *badRoot[4].Batch
	rootSig.RootSig[1] ^= 1
	badRoot[4].Batch = &rootSig
	if fresh.VerifyCert(nil, certKeys, c.at(badRoot)) {
		t.Fatal("bad root signature accepted")
	}
	if !fresh.VerifyCert(nil, certKeys, c.at(sigs)) {
		t.Fatal("a failed certificate cached a root it never verified")
	}
}

// TestConcurrentCertChecks runs certificate checks, valid and with one
// corrupted signature, from many goroutines through one shared verifier
// and pool (run under -race by make test-race).
func TestConcurrentCertChecks(t *testing.T) {
	c := newCertFixture(29)
	pool := NewVerifyPool(2)
	defer pool.Close()
	sv := NewSigVerifier(c.reg, 16)
	bad := append([]types.Signature(nil), c.sigs...)
	bad[certKeys-1].Direct[7] ^= 2
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if !sv.VerifyCert(pool, certKeys, c.at(c.sigs)) {
					t.Error("valid certificate rejected")
				}
				if sv.VerifyCert(pool, certKeys, c.at(bad)) {
					t.Error("corrupted certificate accepted")
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkVerifyCert times one check of a certKeys-signature
// certificate: one comb each and one shared inversion, against certKeys
// single checks.
func BenchmarkVerifyCert(b *testing.B) {
	c := newCertFixture(31)
	sv := NewSigVerifier(c.reg, 16)
	at := c.at(c.sigs)
	if !sv.VerifyCert(nil, certKeys, at) {
		b.Fatal("certificate rejected")
	}
	b.Run("cert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sv.VerifyCert(nil, certKeys, at)
		}
	})
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range c.sigs {
				sv.Verify(c.payloads[j], &c.sigs[j])
			}
		}
	})
}
