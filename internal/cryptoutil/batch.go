package cryptoutil

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edwards25519"
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
	if v.rootCached(b.Root, sig.SignerID) {
		return true
	}
	if !v.verifyDigest(sig.SignerID, b.Root, b.RootSig) {
		return false
	}
	v.cacheRoot(b.Root, sig.SignerID)
	return true
}

// rootCached reports whether root's signature by signer is already
// verified.
func (v *SigVerifier) rootCached(root [32]byte, signer int32) bool {
	v.mu.Lock()
	cachedSigner, hit := v.cache[root]
	v.mu.Unlock()
	return hit && cachedSigner == signer
}

// cacheRoot records root's signature by signer as verified.
func (v *SigVerifier) cacheRoot(root [32]byte, signer int32) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, exists := v.cache[root]; exists {
		return
	}
	if len(v.order) >= v.max {
		oldest := v.order[0]
		v.order = v.order[1:]
		delete(v.cache, oldest)
	}
	v.cache[root] = signer
	v.order = append(v.order, root)
}

// CertSigs returns a certificate's i-th signature and the payload it
// signs, appended to buf (memory the check owns, sized for any vote or
// acknowledgement payload). A nil signature marks an entry the caller
// vouches for itself: it is not checked.
type CertSigs func(i int, buf []byte) (payload []byte, sig *types.Signature)

// VerifyCert reports whether all n signatures of a certificate are valid:
// it accepts exactly what n calls of Verify accept. Each check's scalar
// work and comb (VarTimeDoubleCombMult) runs as one task of pool.All
// (inline when pool is nil) into a pooled point buffer; the comb results
// are then encoded with one shared field inversion and compared with
// their R bytes. Batched signatures use the root cache as Verify does.
func (v *SigVerifier) VerifyCert(pool *VerifyPool, n int, at CertSigs) bool {
	if v.reg.Scheme() == SchemeNone || n <= 0 {
		return true
	}
	sc := getCertScratch(n)
	sc.v, sc.at = v, at
	defer func() {
		sc.v, sc.at = nil, nil
		certScratchPool.Put(sc)
	}()
	if pool != nil {
		if !pool.All(n, sc.check) {
			return false
		}
	} else {
		for i := 0; i < n; i++ {
			if !sc.check(i) {
				return false
			}
		}
	}
	m := 0
	for i := range sc.ents[:n] {
		if sc.ents[i].combed {
			sc.pts[m], sc.rs[m] = sc.pts[i], sc.rs[i]
			m++
		}
	}
	if !encodeMatches(sc.enc[:m], sc.pts[:m], sc.rs[:m]) {
		return false
	}
	for i := range sc.ents[:n] {
		if e := &sc.ents[i]; e.newRoot {
			v.cacheRoot(e.root, e.signer)
		}
	}
	return true
}

// combEntry runs entry i of a VerifyCert up to its encoding: payload,
// proof and root cache, then the comb into sc.pts[i] with the R bytes
// it must encode to in sc.rs[i]. It reports false for a signature
// refused before the encoding.
func (sc *certScratch) combEntry(i int) bool {
	v := sc.v
	e := &sc.ents[i]
	e.combed, e.newRoot = false, false
	payload, sig := sc.at(i, e.buf[:0])
	if sig == nil {
		return true
	}
	raw := sig.Direct
	var dig [32]byte
	if b := sig.Batch; b != nil {
		if !VerifyProof(payload, b.Index, b.Proof, b.Root) {
			return false
		}
		if v.rootCached(b.Root, sig.SignerID) {
			return true
		}
		dig, raw = b.Root, b.RootSig
		e.root, e.signer, e.newRoot = b.Root, sig.SignerID, true
	} else {
		dig = digest(payload)
	}
	if v.checks != nil {
		v.checks.Add(1)
	}
	k := v.reg.key(sig.SignerID)
	if k == nil || !k.comb(&sc.pts[i], &dig, &raw) {
		return false
	}
	sc.rs[i] = [32]byte(raw[:32])
	e.combed = true
	return true
}

// certPayloadCap sizes the payload buffer of one certificate entry; an
// ST2 acknowledgement, the longest signed payload in a certificate, is
// 68 bytes.
const certPayloadCap = 96

// certScratch is one VerifyCert call's working memory, pooled so that a
// certificate check allocates nothing per signature. pts, rs and enc are
// separate slices because the batch encode takes them whole.
type certScratch struct {
	v     *SigVerifier
	at    CertSigs
	check func(i int) bool // sc.combEntry, bound once per scratch

	ents []certEntry
	pts  []edwards25519.Point
	rs   [][32]byte // R bytes each comb result must encode to
	enc  [][32]byte
}

// certEntry is one signature's state within a VerifyCert call.
type certEntry struct {
	buf     [certPayloadCap]byte
	combed  bool // pts[i] holds a comb result to encode
	newRoot bool // root's signature by signer passed; cache it on success
	signer  int32
	root    [32]byte
}

var certScratchPool = sync.Pool{New: func() any {
	sc := new(certScratch)
	sc.check = sc.combEntry
	return sc
}}

// getCertScratch returns pooled scratch for n entries.
func getCertScratch(n int) *certScratch {
	sc := certScratchPool.Get().(*certScratch)
	if len(sc.ents) < n {
		sc.ents = make([]certEntry, n)
		sc.pts = make([]edwards25519.Point, n)
		sc.rs = make([][32]byte, n)
		sc.enc = make([][32]byte, n)
	}
	return sc
}
