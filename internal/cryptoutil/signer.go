// Package cryptoutil supplies Basil's cryptographic substrate: signature
// schemes (ed25519 and a no-op scheme for the NoProofs ablation), a key
// registry mapping replica ids to verification keys and X25519 exchange
// keys, Merkle-tree reply batching with inclusion proofs (paper §4.4), a
// root-signature cache that amortizes verification across replies from
// the same batch, and the pairwise HMAC-SHA256 keys that authenticate
// read replies (mac.go) — the one reply kind no third party ever checks,
// so it needs no transferable proof.
//
// Concurrency and ownership: the Registry is immutable after construction
// and shared freely. MACKeyCache is internally synchronized; ClientKeys
// belongs to one client goroutine. SigVerifier and VerifyPool are internally
// synchronized and designed for sharing (one pool may serve many clients
// and a replica's whole ingest path; see pool.go for the queue-helping
// rule that makes nested use from a worker deadlock-free). BatchSigner
// serializes its own state; Enqueue may compute the signature on the
// calling goroutine when it completes a batch.
package cryptoutil

import (
	"crypto/ecdh"
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
	// Sign returns a fixed 64-byte tag and Verify accepts it.
	SchemeNone
)

// Signer signs payload digests on behalf of one node.
type Signer interface {
	// Sign signs the payload (already domain-separated) and returns the
	// signature.
	Sign(payload []byte) [64]byte
	// ID returns the signer's key-registry index.
	ID() int32
}

// Verifier verifies payload signatures against registry keys.
type Verifier interface {
	// Verify reports whether sig is a valid signature by signer over
	// payload.
	Verify(signer int32, payload []byte, sig [64]byte) bool
}

// digest hashes a payload to the fixed-size value that is actually signed.
func digest(payload []byte) [32]byte { return sha256.Sum256(payload) }

// Registry holds every node's verification key. Index i belongs to the
// node with global key id i (replicas and clients share one id space).
// Signing uses crypto/ed25519; verification uses each key's expanded
// form (edverify.go), built lazily on the key's first verification. Each
// node also has an X25519 key from which replicas derive the read-reply
// MAC keys they share with clients (mac.go).
type Registry struct {
	scheme Scheme
	keys   []expandedKey
	privs  []ed25519.PrivateKey
	kx     []*ecdh.PrivateKey
}

// NewRegistry generates n deterministic ed25519 key pairs under the given
// scheme, then n X25519 keys from the same seeded stream (so the ed25519
// keys match those of a registry without exchange keys). Key generation
// is seeded so tests and benchmarks are reproducible.
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
	r.kx = make([]*ecdh.PrivateKey, n)
	for i := 0; i < n; i++ {
		var kxSeed [32]byte
		rng.Read(kxSeed[:])
		k, err := ecdh.X25519().NewPrivateKey(kxSeed[:])
		if err != nil {
			panic("cryptoutil: X25519 key: " + err.Error())
		}
		r.kx[i] = k
	}
	return r
}

// kxPublic returns node id's X25519 public key, nil when it has none.
func (r *Registry) kxPublic(id int32) *ecdh.PublicKey {
	if id < 0 || int(id) >= len(r.kx) {
		return nil
	}
	return r.kx[id].PublicKey()
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
func (r *Registry) Verify(signer int32, payload []byte, sig [64]byte) bool {
	if r.scheme == SchemeNone {
		return sig == noSig
	}
	d := digest(payload)
	return r.VerifyDigest(signer, d, sig)
}

// VerifyDigest verifies a signature over an already-hashed digest (used for
// Merkle batch roots, which are themselves hashes).
func (r *Registry) VerifyDigest(signer int32, d [32]byte, sig [64]byte) bool {
	if r.scheme == SchemeNone {
		return sig == noSig
	}
	k := r.key(signer)
	return k != nil && k.verify(&d, sig[:])
}

// key returns signer's expanded key, nil when the id has none.
func (r *Registry) key(signer int32) *expandedKey {
	if signer < 0 || int(signer) >= len(r.keys) {
		return nil
	}
	return &r.keys[signer]
}

type edSigner struct {
	id   int32
	priv ed25519.PrivateKey
}

func (s *edSigner) Sign(payload []byte) [64]byte { return s.SignDigest(digest(payload)) }

func (s *edSigner) ID() int32 { return s.id }

// SignDigest signs an already-hashed digest.
func (s *edSigner) SignDigest(d [32]byte) [64]byte { return [64]byte(ed25519.Sign(s.priv, d[:])) }

// DigestSigner is implemented by signers that can sign a precomputed
// 32-byte digest directly (used for Merkle roots).
type DigestSigner interface {
	SignDigest(d [32]byte) [64]byte
}

// noSig is the NoProofs scheme's signature: every byte 0xA5.
var noSig = func() (t [64]byte) {
	for i := range t {
		t[i] = 0xA5
	}
	return t
}()

type noSigner struct{ id int32 }

func (s noSigner) Sign([]byte) [64]byte         { return noSig }
func (s noSigner) SignDigest([32]byte) [64]byte { return noSig }
func (s noSigner) ID() int32                    { return s.id }

var _ DigestSigner = noSigner{}
var _ DigestSigner = (*edSigner)(nil)
