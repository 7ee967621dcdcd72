package cryptoutil

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
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
// key.

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

// SumReadMAC returns the HMAC-SHA256 of rr's payload under k.
func SumReadMAC(k *MACKey, rr *types.ReadReply) [32]byte {
	m := hmac.New(sha256.New, k[:])
	m.Write(rr.AppendPayload(nil))
	var out [32]byte
	m.Sum(out[:0])
	return out
}

// CheckReadMAC reports, in constant time, whether rr carries the MAC of
// its payload under k.
func CheckReadMAC(k *MACKey, rr *types.ReadReply) bool {
	want := SumReadMAC(k, rr)
	return hmac.Equal(want[:], rr.MAC[:])
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

// Len returns the number of cached keys.
func (c *MACKeyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys)
}
