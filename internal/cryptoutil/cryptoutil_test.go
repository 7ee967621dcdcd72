package cryptoutil

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/types"
)

func TestSignVerify(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 3, 1)
	payload := []byte("hello world")
	for id := int32(0); id < 3; id++ {
		sig := reg.Signer(id).Sign(payload)
		if !reg.Verify(id, payload, sig) {
			t.Fatalf("signature by %d did not verify", id)
		}
		if reg.Verify((id+1)%3, payload, sig) {
			t.Fatalf("signature by %d verified under wrong key", id)
		}
		if reg.Verify(id, []byte("tampered"), sig) {
			t.Fatal("tampered payload verified")
		}
	}
	if reg.Verify(99, payload, []byte("junk")) {
		t.Fatal("out-of-range signer verified")
	}
}

func TestRegistryDeterministic(t *testing.T) {
	a := NewRegistry(SchemeEd25519, 2, 42)
	b := NewRegistry(SchemeEd25519, 2, 42)
	p := []byte("x")
	if !b.Verify(0, p, a.Signer(0).Sign(p)) {
		t.Fatal("same seed should generate identical keys")
	}
	c := NewRegistry(SchemeEd25519, 2, 43)
	if c.Verify(0, p, a.Signer(0).Sign(p)) {
		t.Fatal("different seed should generate different keys")
	}
}

func TestNoSigScheme(t *testing.T) {
	reg := NewRegistry(SchemeNone, 0, 1)
	sig := reg.Signer(7).Sign([]byte("anything"))
	if !reg.Verify(7, []byte("whatever"), sig) {
		t.Fatal("no-sig scheme must accept its tag")
	}
	if reg.Verify(7, []byte("x"), []byte("bogus!")) {
		t.Fatal("no-sig scheme must reject wrong tags")
	}
}

func TestMerkleProofAllLeaves(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33} {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = []byte{byte(i), byte(i >> 8), 0xAA}
		}
		tree := NewMerkleTree(payloads)
		root := tree.Root()
		for i := range payloads {
			proof := tree.Proof(i)
			if !VerifyProof(payloads[i], uint32(i), proof, root) {
				t.Fatalf("n=%d leaf %d proof failed", n, i)
			}
			// Wrong index must fail (orientation matters). The padded
			// duplicate of the final odd leaf is indistinguishable from
			// its sibling by construction, so only check pairs of real,
			// distinct leaves.
			if i^1 < n && VerifyProof(payloads[i], uint32(i^1), proof, root) {
				t.Fatalf("n=%d leaf %d verified under wrong index", n, i)
			}
		}
		// Foreign payload must fail.
		if VerifyProof([]byte("forged"), 0, tree.Proof(0), root) {
			t.Fatalf("n=%d forged payload verified", n)
		}
	}
}

func TestMerkleProofProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%32) + 1
		rng := rand.New(rand.NewSource(seed))
		payloads := make([][]byte, count)
		for i := range payloads {
			payloads[i] = make([]byte, 1+rng.Intn(40))
			rng.Read(payloads[i])
		}
		tree := NewMerkleTree(payloads)
		i := rng.Intn(count)
		return VerifyProof(payloads[i], uint32(i), tree.Proof(i), tree.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMerkleTamperedProofFails(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	tree := NewMerkleTree(payloads)
	proof := tree.Proof(2)
	proof[0][5] ^= 1
	if VerifyProof(payloads[2], 2, proof, tree.Root()) {
		t.Fatal("tampered proof verified")
	}
}

func TestBatchSignerSizeFlush(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 1, 1)
	bs := NewBatchSigner(reg.Signer(0), 4, time.Hour) // timer never fires
	defer bs.Close()
	var mu sync.Mutex
	var sigs []types.Signature
	payloads := [][]byte{[]byte("p0"), []byte("p1"), []byte("p2"), []byte("p3")}
	done := make(chan struct{})
	for _, p := range payloads {
		p := p
		bs.Enqueue(p, func(sig types.Signature) {
			mu.Lock()
			sigs = append(sigs, sig)
			if len(sigs) == len(payloads) {
				close(done)
			}
			mu.Unlock()
		})
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("batch did not flush at size")
	}
	sv := NewSigVerifier(reg, 16)
	root := sigs[0].Batch.Root
	for i := range sigs {
		if sigs[i].Batch.Root != root {
			t.Fatal("batch should share one root")
		}
		s := sigs[i]
		if !sv.Verify(payloads[s.Batch.Index], &s) {
			t.Fatalf("batched signature %d failed to verify", i)
		}
	}
}

func TestBatchSignerTimerFlush(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 1, 1)
	bs := NewBatchSigner(reg.Signer(0), 1000, 5*time.Millisecond)
	defer bs.Close()
	got := make(chan types.Signature, 1)
	bs.Enqueue([]byte("solo"), func(sig types.Signature) { got <- sig })
	select {
	case sig := <-got:
		sv := NewSigVerifier(reg, 16)
		if !sv.Verify([]byte("solo"), &sig) {
			t.Fatal("timer-flushed signature invalid")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer flush never happened")
	}
}

func TestBatchSizeOneIsDirect(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 1, 1)
	bs := NewBatchSigner(reg.Signer(0), 1, time.Millisecond)
	defer bs.Close()
	var sig types.Signature
	doneCh := make(chan struct{})
	bs.Enqueue([]byte("x"), func(s types.Signature) { sig = s; close(doneCh) })
	<-doneCh
	if sig.IsBatched() {
		t.Fatal("size-1 batch should produce a direct signature")
	}
	if !NewSigVerifier(reg, 4).Verify([]byte("x"), &sig) {
		t.Fatal("direct signature invalid")
	}
}

// TestBatchSignerClosedRejectsBoth: Enqueue after Close must be a no-op on
// the size-1 direct path exactly like on the batched path (regression:
// the fast path used to keep signing after Close).
func TestBatchSignerClosedRejectsBoth(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 1, 1)
	for _, size := range []int{1, 4} {
		bs := NewBatchSigner(reg.Signer(0), size, time.Millisecond)
		bs.Close()
		signed := make(chan struct{})
		bs.Enqueue([]byte("late"), func(types.Signature) { close(signed) })
		select {
		case <-signed:
			t.Fatalf("size=%d: Enqueue after Close still signed", size)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestSigVerifierRejectsWrongSigner(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 2, 1)
	bs := NewBatchSigner(reg.Signer(0), 1, time.Millisecond)
	defer bs.Close()
	ch := make(chan types.Signature, 1)
	bs.Enqueue([]byte("x"), func(s types.Signature) { ch <- s })
	sig := <-ch
	sig.SignerID = 1 // claim another identity
	if NewSigVerifier(reg, 4).Verify([]byte("x"), &sig) {
		t.Fatal("signature accepted under wrong signer id")
	}
}

func TestSigVerifierRootCache(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 1, 1)
	bs := NewBatchSigner(reg.Signer(0), 2, time.Hour)
	defer bs.Close()
	type pair struct {
		payload []byte
		sig     types.Signature
	}
	ch := make(chan pair, 2)
	for _, p := range [][]byte{[]byte("a"), []byte("b")} {
		p := p
		bs.Enqueue(p, func(s types.Signature) { ch <- pair{p, s} })
	}
	p1, p2 := <-ch, <-ch
	sv := NewSigVerifier(reg, 4)
	if !sv.Verify(p1.payload, &p1.sig) || !sv.Verify(p2.payload, &p2.sig) {
		t.Fatal("batched signatures failed")
	}
	// Second verification of the same root hits the cache; a corrupted
	// root signature must still fail because the proof binds the payload.
	bad := p2.sig
	proof := *p2.sig.Batch
	proof.Index = p1.sig.Batch.Index // wrong index -> proof mismatch
	bad.Batch = &proof
	if sv.Verify(p2.payload, &bad) {
		t.Fatal("cache bypassed the inclusion proof")
	}
}
