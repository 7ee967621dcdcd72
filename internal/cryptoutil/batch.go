package cryptoutil

import (
	"crypto/sha256"
	"encoding/binary"
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
	var rootSig []byte
	if ds, ok := b.signer.(DigestSigner); ok {
		rootSig = ds.SignDigest(root)
	} else {
		rootSig = b.signer.Sign(root[:])
	}
	for i, p := range batch {
		p.done(types.Signature{
			SignerID: b.signer.ID(),
			Root:     root,
			RootSig:  rootSig,
			Proof:    tree.Proof(i),
			Index:    uint32(i),
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
// Direct signatures get the same treatment through a bounded
// verified-digest cache: protocol messages routinely re-carry the same
// signed replies (an ST2 tally embeds the ST1Rs the client collected,
// recovery re-delivers them, certificates repeat them per shard), and a
// (digest, signer, sig) triple that verified once always verifies.
type SigVerifier struct {
	reg *Registry

	// mu guards the verification caches and their FIFO eviction order;
	// ed25519 work runs outside it.
	mu    sync.Mutex
	cache map[[32]byte]int32 // verified root -> signer
	order [][32]byte         // FIFO eviction
	// direct holds digests of already-verified direct signatures.
	direct      map[[32]byte]bool
	directOrder [][32]byte
	max         int

	directHits atomic.Uint64
	// checks, if set, counts the signature checks actually run.
	checks *atomic.Uint64
}

// NewSigVerifier creates a verifier with a bounded root cache.
func NewSigVerifier(reg *Registry, cacheSize int) *SigVerifier {
	if cacheSize < 1 {
		cacheSize = 1
	}
	return &SigVerifier{
		reg:    reg,
		cache:  make(map[[32]byte]int32),
		direct: make(map[[32]byte]bool),
		max:    cacheSize,
	}
}

// DirectCacheHits reports how many direct-signature verifications were
// answered from the verified-digest cache (observability for tests and the
// parallel experiment).
func (v *SigVerifier) DirectCacheHits() uint64 { return v.directHits.Load() }

// CountChecks makes v add one to c for every signature check it actually
// runs; answers from either cache are not checks. Call it before sharing v.
func (v *SigVerifier) CountChecks(c *atomic.Uint64) { v.checks = c }

// verifyDigest runs one registry signature check, counting it.
func (v *SigVerifier) verifyDigest(signer int32, d [32]byte, sig []byte) bool {
	if v.checks != nil {
		v.checks.Add(1)
	}
	return v.reg.VerifyDigest(signer, d, sig)
}

// directKey folds the payload digest, signer id and signature bytes into
// one cache key, so a Byzantine sender cannot poison the cache by pairing
// a cached payload with a garbage signature.
func directKey(d [32]byte, signer int32, sig []byte) [32]byte {
	h := sha256.New()
	h.Write(d[:])
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(signer))
	h.Write(idb[:])
	h.Write(sig)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// Verify checks sig over payload. For batched signatures it verifies the
// Merkle inclusion proof and then the root signature (via the cache); for
// direct signatures it consults the verified-digest cache first.
func (v *SigVerifier) Verify(payload []byte, sig *types.Signature) bool {
	if v.reg.Scheme() == SchemeNone {
		return true
	}
	if !sig.IsBatched() {
		d := digest(payload)
		key := directKey(d, sig.SignerID, sig.Direct)
		v.mu.Lock()
		hit := v.direct[key]
		v.mu.Unlock()
		if hit {
			v.directHits.Add(1)
			return true
		}
		if !v.verifyDigest(sig.SignerID, d, sig.Direct) {
			return false
		}
		v.mu.Lock()
		if !v.direct[key] {
			if len(v.directOrder) >= v.max {
				oldest := v.directOrder[0]
				v.directOrder = v.directOrder[1:]
				delete(v.direct, oldest)
			}
			v.direct[key] = true
			v.directOrder = append(v.directOrder, key)
		}
		v.mu.Unlock()
		return true
	}
	if !VerifyProof(payload, sig.Index, sig.Proof, sig.Root) {
		return false
	}
	v.mu.Lock()
	cachedSigner, hit := v.cache[sig.Root]
	v.mu.Unlock()
	if hit && cachedSigner == sig.SignerID {
		return true
	}
	if !v.verifyDigest(sig.SignerID, sig.Root, sig.RootSig) {
		return false
	}
	v.mu.Lock()
	if _, exists := v.cache[sig.Root]; !exists {
		if len(v.order) >= v.max {
			oldest := v.order[0]
			v.order = v.order[1:]
			delete(v.cache, oldest)
		}
		v.cache[sig.Root] = sig.SignerID
		v.order = append(v.order, sig.Root)
	}
	v.mu.Unlock()
	return true
}
