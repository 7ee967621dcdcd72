package cryptoutil

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

func TestVerifyPoolAll(t *testing.T) {
	p := NewVerifyPool(4)
	defer p.Close()
	var ran atomic.Int64
	if !p.All(100, func(i int) bool { ran.Add(1); return true }) {
		t.Fatal("all-true batch reported failure")
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", ran.Load())
	}
	if p.All(50, func(i int) bool { return i != 17 }) {
		t.Fatal("batch with one failure reported success")
	}
	if !p.All(0, func(int) bool { t.Fatal("n=0 ran a task"); return false }) {
		t.Fatal("empty batch must pass")
	}
}

// All must complete even when invoked from a pool worker with every other
// slot busy — the inline fallback is what makes the replica's
// verify-inside-handler pattern deadlock-free.
func TestVerifyPoolAllFromWorker(t *testing.T) {
	p := NewVerifyPool(1)
	defer p.Close()
	done := make(chan bool, 1)
	p.Go(func() {
		done <- p.All(32, func(int) bool { return true })
	})
	if !<-done {
		t.Fatal("nested All failed")
	}
}

func TestVerifyPoolCloseDrains(t *testing.T) {
	p := NewVerifyPool(2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Go(func() { ran.Add(1) })
		}()
	}
	wg.Wait()
	p.Close()
	accepted := ran.Load()
	// Every accepted task must have executed before Close returned.
	if accepted != 64 {
		t.Fatalf("accepted %d of 64 pre-close tasks", accepted)
	}
	if p.Go(func() { ran.Add(1) }) {
		t.Fatal("Go after Close must be rejected")
	}
	if ran.Load() != accepted {
		t.Fatal("task ran after Close")
	}
	// All after Close falls back to inline execution and still completes.
	var inline atomic.Int64
	if !p.All(8, func(int) bool { inline.Add(1); return true }) {
		t.Fatal("All after Close failed")
	}
	if inline.Load() != 8 {
		t.Fatalf("All after Close ran %d of 8 inline", inline.Load())
	}
	p.Close() // idempotent
}

// TestSigVerifierChecksEveryDirect pins that direct signatures are not
// cached: each Verify of one runs a registry check, and a tampered copy
// is rejected after the original verified.
func TestSigVerifierChecksEveryDirect(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 2, 1)
	sv := NewSigVerifier(reg, 16)
	var checks atomic.Uint64
	sv.CountChecks(&checks)
	payload := []byte("st1 reply payload")
	sig := types.Signature{SignerID: 0, Direct: reg.Signer(0).Sign(payload)}
	for i := 0; i < 3; i++ {
		if !sv.Verify(payload, &sig) {
			t.Fatal("valid signature rejected")
		}
	}
	if checks.Load() != 3 {
		t.Fatalf("3 verifications ran %d checks, want 3", checks.Load())
	}
	bad := sig
	bad.Direct = append([]byte(nil), sig.Direct...)
	bad.Direct[0] ^= 0xFF
	if sv.Verify(payload, &bad) {
		t.Fatal("corrupted signature accepted")
	}
}
