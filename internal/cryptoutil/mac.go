package cryptoutil

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"sync"

	"repro/internal/types"
)

// Pairwise read-reply authentication.
//
// A read reply is consumed only by the client that asked for it: replicas
// validate dependencies from their own stores and no certificate embeds a
// read reply. A MAC under a key only that client and that replica hold
// therefore authenticates the reply to its one reader as well as a
// signature would (PBFT's authenticator argument), at a fraction of the
// cost. The key comes from an X25519 exchange between the client's
// ephemeral key, carried in each ReadRequest, and the replica's registry
// key. The certificate-fetch reply that may follow a read (CertReply) is
// MACed under the same key; the payloads' domain tags keep the two kinds
// apart.

// macDomain separates read-reply MAC keys from any other use of the
// X25519 shared secret.
const macDomain = "basil/read-mac/"

// MACKey is the HMAC-SHA256 key one client shares with one replica.
type MACKey [32]byte

// deriveMACKey hashes the domain tag, the X25519 shared secret and both
// public keys (client first) into a MAC key.
func deriveMACKey(shared, clientPub, replicaPub []byte) MACKey {
	h := sha256.New()
	h.Write([]byte(macDomain))
	h.Write(shared)
	h.Write(clientPub)
	h.Write(replicaPub)
	var k MACKey
	h.Sum(k[:0])
	return k
}

// SumReadMAC returns the HMAC-SHA256 of rr's payload under k. It is
// RFC 2104 spelled out over sha256.Sum256 — H(k⊕opad ‖ H(k⊕ipad ‖ payload))
// with the 32-byte key zero-padded to the 64-byte block — because
// crypto/hmac allocates two hash states per call and this runs once per
// read reply on each side. The payload is encoded into a pooled buffer
// that never leaves the call. The output is bit-identical to crypto/hmac
// (FuzzReadMAC).
func SumReadMAC(k *MACKey, rr *types.ReadReply) [32]byte {
	bp := macBufPool.Get().(*[]byte)
	return finishMAC(k, bp, rr.AppendPayload(appendPaddedKey((*bp)[:0], k, hmacIpad)))
}

// SumCertMAC returns the HMAC-SHA256 of r's payload under k, computed as
// SumReadMAC computes a read reply's.
func SumCertMAC(k *MACKey, r *types.CertReply) [32]byte {
	bp := macBufPool.Get().(*[]byte)
	return finishMAC(k, bp, r.AppendPayload(appendPaddedKey((*bp)[:0], k, hmacIpad)))
}

// finishMAC completes an HMAC-SHA256 under k whose inner input (the
// ipad-XORed key, then the payload) is b, built in the pooled buffer bp,
// and returns bp to the pool.
func finishMAC(k *MACKey, bp *[]byte, b []byte) [32]byte {
	inner := sha256.Sum256(b)
	if cap(b) <= maxPooledMACBuf {
		*bp = b
		macBufPool.Put(bp)
	}
	var outer [sha256.BlockSize + sha256.Size]byte
	o := append(appendPaddedKey(outer[:0], k, hmacOpad), inner[:]...)
	return sha256.Sum256(o)
}

// appendPaddedKey appends k, zero-padded to one SHA-256 block and XORed
// with pad, to b.
func appendPaddedKey(b []byte, k *MACKey, pad byte) []byte {
	for _, c := range k {
		b = append(b, c^pad)
	}
	for range sha256.BlockSize - len(k) {
		b = append(b, pad)
	}
	return b
}

// RFC 2104 pad bytes.
const (
	hmacIpad = 0x36
	hmacOpad = 0x5c
)

// maxPooledMACBuf is the largest payload buffer returned to macBufPool; a
// bigger one (a reply with an unusually large value) is left to the
// collector rather than pinned.
const maxPooledMACBuf = 4 << 10

// macBufPool holds SumReadMAC's payload buffers.
var macBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// CheckReadMAC reports, in constant time, whether rr carries the MAC of
// its payload under k.
func CheckReadMAC(k *MACKey, rr *types.ReadReply) bool {
	want := SumReadMAC(k, rr)
	return subtle.ConstantTimeCompare(want[:], rr.MAC[:]) == 1
}

// CheckCertMAC reports, in constant time, whether r carries the MAC of
// its payload under k.
func CheckCertMAC(k *MACKey, r *types.CertReply) bool {
	want := SumCertMAC(k, r)
	return subtle.ConstantTimeCompare(want[:], r.MAC[:]) == 1
}

// ClientKeys is a client's ephemeral X25519 key pair plus the MAC keys it
// has derived, one per replica. Not safe for concurrent use: it belongs to
// one client, which runs one transaction at a time.
type ClientKeys struct {
	priv *ecdh.PrivateKey
	pub  [32]byte
	keys map[int32]MACKey
}

// NewClientKeys draws a fresh X25519 key pair from crypto/rand.
func NewClientKeys() *ClientKeys {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		panic("cryptoutil: X25519 key generation failed: " + err.Error())
	}
	k := &ClientKeys{priv: priv, keys: make(map[int32]MACKey)}
	copy(k.pub[:], priv.PublicKey().Bytes())
	return k
}

// Public returns the key a ReadRequest carries.
func (k *ClientKeys) Public() [32]byte { return k.pub }

// MACKey returns the key shared with registry node id, deriving it on the
// first call. ok is false when reg has no exchange key for id (out of
// range, or the NoProofs scheme).
func (k *ClientKeys) MACKey(reg *Registry, id int32) (key MACKey, ok bool) {
	if key, ok = k.keys[id]; ok {
		return key, true
	}
	pub := reg.kxPublic(id)
	if pub == nil {
		return MACKey{}, false
	}
	shared, err := k.priv.ECDH(pub)
	if err != nil {
		return MACKey{}, false
	}
	key = deriveMACKey(shared, k.pub[:], pub.Bytes())
	k.keys[id] = key
	return key, true
}

// MACKeyCache is a replica's side of read-reply authentication: the MAC
// key it shares with each client key it has seen, bounded to max entries.
// When full, an arbitrary entry is evicted, so a client that rotates keys
// costs the replica one X25519 per admitted read and never unbounded
// memory. Safe for concurrent use.
type MACKeyCache struct {
	priv *ecdh.PrivateKey
	max  int

	// mu guards keys; it is a leaf lock, never held across the X25519
	// exchange.
	mu   sync.Mutex
	keys map[[32]byte]MACKey
}

// NewMACKeyCache returns a cache for registry node id holding at most max
// keys, or nil when reg has no exchange key for id (the NoProofs scheme).
func NewMACKeyCache(reg *Registry, id int32, max int) *MACKeyCache {
	if reg.scheme == SchemeNone || id < 0 || int(id) >= len(reg.kx) {
		return nil
	}
	if max < 1 {
		max = 1
	}
	return &MACKeyCache{priv: reg.kx[id], max: max, keys: make(map[[32]byte]MACKey)}
}

// Key returns the MAC key shared with the client whose X25519 public key
// is clientPub. ok is false for a key that yields no valid exchange (a
// low-order point, or the zero key a NoProofs client sends).
func (c *MACKeyCache) Key(clientPub [32]byte) (key MACKey, ok bool) {
	c.mu.Lock()
	key, ok = c.keys[clientPub]
	c.mu.Unlock()
	if ok {
		return key, true
	}
	// The exchange runs outside the lock: two first reads from one client
	// may both derive the same key, which is harmless.
	pub, err := ecdh.X25519().NewPublicKey(clientPub[:])
	if err != nil {
		return MACKey{}, false
	}
	shared, err := c.priv.ECDH(pub)
	if err != nil {
		return MACKey{}, false
	}
	key = deriveMACKey(shared, clientPub[:], c.priv.PublicKey().Bytes())
	c.mu.Lock()
	if _, dup := c.keys[clientPub]; !dup && len(c.keys) >= c.max {
		for k := range c.keys {
			delete(c.keys, k)
			break
		}
	}
	c.keys[clientPub] = key
	c.mu.Unlock()
	return key, true
}

// Cached returns the MAC key shared with clientPub if the cache holds
// it, without running an exchange. A path that must stay cheap for
// whatever key a sender names (answering a shed request) uses it.
func (c *MACKeyCache) Cached(clientPub [32]byte) (key MACKey, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok = c.keys[clientPub]
	return key, ok
}

// Len returns the number of cached keys.
func (c *MACKeyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys)
}
