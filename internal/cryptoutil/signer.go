// Package cryptoutil supplies Basil's cryptographic substrate: signature
// schemes (ed25519 and a no-op scheme for the NoProofs ablation), a key
// registry mapping replica ids to verification keys, Merkle-tree reply
// batching with inclusion proofs (paper §4.4), and a root-signature cache
// that amortizes verification across replies from the same batch.
//
// Concurrency and ownership: the Registry is immutable after construction
// and shared freely. SigVerifier and VerifyPool are internally
// synchronized and designed for sharing (one pool may serve many clients
// and a replica's whole ingest path; see pool.go for the queue-helping
// rule that makes nested use from a worker deadlock-free). BatchSigner
// serializes its own state; Enqueue may compute the signature on the
// calling goroutine when it completes a batch.
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"math/rand"
)

// Scheme selects a signature scheme for a deployment.
type Scheme uint8

// Available signature schemes.
const (
	// SchemeEd25519 signs SHA-256 payload digests with ed25519.
	SchemeEd25519 Scheme = iota
	// SchemeNone disables signatures entirely (Basil-NoProofs, Fig. 5a).
	// Sign returns a fixed one-byte tag and Verify accepts it.
	SchemeNone
)

// Signer signs payload digests on behalf of one node.
type Signer interface {
	// Sign signs the payload (already domain-separated) and returns the
	// signature bytes.
	Sign(payload []byte) []byte
	// ID returns the signer's key-registry index.
	ID() int32
}

// Verifier verifies payload signatures against registry keys.
type Verifier interface {
	// Verify reports whether sig is a valid signature by signer over
	// payload.
	Verify(signer int32, payload, sig []byte) bool
}

// digest hashes a payload to the fixed-size value that is actually signed.
func digest(payload []byte) [32]byte { return sha256.Sum256(payload) }

// Registry holds every node's verification key. Index i belongs to the
// node with global key id i (replicas and clients share one id space).
// Signing uses crypto/ed25519; verification uses each key's expanded
// form (edverify.go), built lazily on the key's first verification.
type Registry struct {
	scheme Scheme
	keys   []expandedKey
	privs  []ed25519.PrivateKey
}

// NewRegistry generates n deterministic key pairs under the given scheme.
// Key generation is seeded so tests and benchmarks are reproducible.
func NewRegistry(scheme Scheme, n int, seed int64) *Registry {
	r := &Registry{scheme: scheme}
	if scheme == SchemeNone {
		return r
	}
	rng := rand.New(rand.NewSource(seed))
	r.keys = make([]expandedKey, n)
	r.privs = make([]ed25519.PrivateKey, n)
	for i := 0; i < n; i++ {
		seedBytes := make([]byte, ed25519.SeedSize)
		rng.Read(seedBytes)
		priv := ed25519.NewKeyFromSeed(seedBytes)
		r.privs[i] = priv
		r.keys[i].pub = priv.Public().(ed25519.PublicKey)
	}
	return r
}

// Scheme returns the registry's signature scheme.
func (r *Registry) Scheme() Scheme { return r.scheme }

// Signer returns the signing half for node id.
func (r *Registry) Signer(id int32) Signer {
	if r.scheme == SchemeNone {
		return noSigner{id: id}
	}
	if int(id) >= len(r.privs) {
		panic(fmt.Sprintf("cryptoutil: signer id %d out of range %d", id, len(r.privs)))
	}
	return &edSigner{id: id, priv: r.privs[id]}
}

// Verify reports whether sig is a valid signature by signer over payload.
func (r *Registry) Verify(signer int32, payload, sig []byte) bool {
	if r.scheme == SchemeNone {
		return len(sig) == 1 && sig[0] == noSigTag
	}
	d := digest(payload)
	return r.VerifyDigest(signer, d, sig)
}

// VerifyDigest verifies a signature over an already-hashed digest (used for
// Merkle batch roots, which are themselves hashes).
func (r *Registry) VerifyDigest(signer int32, d [32]byte, sig []byte) bool {
	if r.scheme == SchemeNone {
		return len(sig) == 1 && sig[0] == noSigTag
	}
	if signer < 0 || int(signer) >= len(r.keys) {
		return false
	}
	return r.keys[signer].verify(&d, sig)
}

type edSigner struct {
	id   int32
	priv ed25519.PrivateKey
}

func (s *edSigner) Sign(payload []byte) []byte {
	d := digest(payload)
	return ed25519.Sign(s.priv, d[:])
}

func (s *edSigner) ID() int32 { return s.id }

// SignDigest signs an already-hashed digest.
func (s *edSigner) SignDigest(d [32]byte) []byte { return ed25519.Sign(s.priv, d[:]) }

// DigestSigner is implemented by signers that can sign a precomputed
// 32-byte digest directly (used for Merkle roots).
type DigestSigner interface {
	SignDigest(d [32]byte) []byte
}

const noSigTag byte = 0xA5

type noSigner struct{ id int32 }

func (s noSigner) Sign([]byte) []byte         { return []byte{noSigTag} }
func (s noSigner) SignDigest([32]byte) []byte { return []byte{noSigTag} }
func (s noSigner) ID() int32                  { return s.id }

var _ DigestSigner = noSigner{}
var _ DigestSigner = (*edSigner)(nil)
