package cryptoutil

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// BatchSigner amortizes signature generation across replies (paper §4.4).
// Replies are queued with their payload; once Size payloads accumulate (or
// MaxDelay elapses with a non-empty queue) the signer builds one Merkle
// tree, signs the root, and completes every queued reply with the shared
// root signature plus its individual inclusion proof.
//
// Size=1 degenerates to direct per-reply signatures with no tree overhead,
// which is the b=1 point of Fig. 6b.
type BatchSigner struct {
	signer   Signer
	size     int
	maxDelay time.Duration

	// mu guards the batch under assembly (pending, timer, closed); it is
	// a leaf lock held only to append or cut a batch, so Enqueue is safe
	// to call under callers' own locks.
	mu      sync.Mutex
	pending []pendingSig
	timer   *time.Timer
	closed  bool
}

type pendingSig struct {
	payload []byte
	done    func(types.Signature)
}

// NewBatchSigner creates a batch signer flushing at size payloads or after
// maxDelay, whichever comes first. size < 1 is treated as 1.
func NewBatchSigner(signer Signer, size int, maxDelay time.Duration) *BatchSigner {
	if size < 1 {
		size = 1
	}
	if maxDelay <= 0 {
		maxDelay = time.Millisecond
	}
	return &BatchSigner{signer: signer, size: size, maxDelay: maxDelay}
}

// Enqueue schedules payload for signing; done is invoked (on the flushing
// goroutine) with the completed signature. Enqueue after Close is a no-op
// on both the direct and the batched path.
func (b *BatchSigner) Enqueue(payload []byte, done func(types.Signature)) {
	if b.size == 1 {
		b.mu.Lock()
		closed := b.closed
		b.mu.Unlock()
		if closed {
			return
		}
		sig := types.Signature{SignerID: b.signer.ID(), Direct: b.signer.Sign(payload)}
		done(sig)
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.pending = append(b.pending, pendingSig{payload: payload, done: done})
	if len(b.pending) >= b.size {
		batch := b.take()
		b.mu.Unlock()
		b.flush(batch)
		return
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.maxDelay, b.onTimer)
	}
	b.mu.Unlock()
}

func (b *BatchSigner) onTimer() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// take removes and returns the pending batch; caller holds b.mu.
func (b *BatchSigner) take() []pendingSig {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

func (b *BatchSigner) flush(batch []pendingSig) {
	payloads := make([][]byte, len(batch))
	for i, p := range batch {
		payloads[i] = p.payload
	}
	tree := NewMerkleTree(payloads)
	root := tree.Root()
	var rootSig [64]byte
	if ds, ok := b.signer.(DigestSigner); ok {
		rootSig = ds.SignDigest(root)
	} else {
		rootSig = b.signer.Sign(root[:])
	}
	for i, p := range batch {
		p.done(types.Signature{
			SignerID: b.signer.ID(),
			Batch: &types.BatchProof{
				Root:    root,
				RootSig: rootSig,
				Proof:   tree.Proof(i),
				Index:   uint32(i),
			},
		})
	}
}

// Close flushes any pending batch and stops the timer.
func (b *BatchSigner) Close() {
	b.mu.Lock()
	b.closed = true
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// SigVerifier verifies types.Signature values (direct or batched) against a
// registry, caching verified batch roots so the root signature is checked
// once per batch rather than once per reply (paper §4.4 signature cache).
// Direct signatures are checked on every call: re-carried votes are
// rare enough that a digest cache cost more heap and hashing than it
// saved, and repeated certificates are cached whole by quorum.
type SigVerifier struct {
	reg *Registry

	// mu guards the root cache and its FIFO eviction order; ed25519 work
	// runs outside it.
	mu    sync.Mutex
	cache map[[32]byte]int32 // verified root -> signer
	order [][32]byte         // FIFO eviction
	max   int

	// checks, if set, counts the signature checks actually run.
	checks *atomic.Uint64
}

// NewSigVerifier creates a verifier with a bounded root cache.
func NewSigVerifier(reg *Registry, cacheSize int) *SigVerifier {
	if cacheSize < 1 {
		cacheSize = 1
	}
	return &SigVerifier{
		reg:   reg,
		cache: make(map[[32]byte]int32),
		max:   cacheSize,
	}
}

// CountChecks makes v add one to c for every signature check it actually
// runs; answers from the root cache are not checks. Call it before
// sharing v.
func (v *SigVerifier) CountChecks(c *atomic.Uint64) { v.checks = c }

// verifyDigest runs one registry signature check, counting it.
func (v *SigVerifier) verifyDigest(signer int32, d [32]byte, sig [64]byte) bool {
	if v.checks != nil {
		v.checks.Add(1)
	}
	return v.reg.VerifyDigest(signer, d, sig)
}

// Verify checks sig over payload. For batched signatures it verifies the
// Merkle inclusion proof and then the root signature (via the cache);
// direct signatures are checked against the registry.
func (v *SigVerifier) Verify(payload []byte, sig *types.Signature) bool {
	if v.reg.Scheme() == SchemeNone {
		return true
	}
	if !sig.IsBatched() {
		return v.verifyDigest(sig.SignerID, digest(payload), sig.Direct)
	}
	b := sig.Batch
	if !VerifyProof(payload, b.Index, b.Proof, b.Root) {
		return false
	}
	v.mu.Lock()
	cachedSigner, hit := v.cache[b.Root]
	v.mu.Unlock()
	if hit && cachedSigner == sig.SignerID {
		return true
	}
	if !v.verifyDigest(sig.SignerID, b.Root, b.RootSig) {
		return false
	}
	v.mu.Lock()
	if _, exists := v.cache[b.Root]; !exists {
		if len(v.order) >= v.max {
			oldest := v.order[0]
			v.order = v.order[1:]
			delete(v.cache, oldest)
		}
		v.cache[b.Root] = sig.SignerID
		v.order = append(v.order, b.Root)
	}
	v.mu.Unlock()
	return true
}
