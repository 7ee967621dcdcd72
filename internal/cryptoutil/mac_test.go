package cryptoutil

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/types"
)

// TestRegistryEd25519KeysUnchanged: the exchange keys are drawn after the
// ed25519 keys, so the signing keys are exactly those of the seeded
// stream's first n seeds, as before the exchange keys existed.
func TestRegistryEd25519KeysUnchanged(t *testing.T) {
	const n, seed = 5, 77
	reg := NewRegistry(SchemeEd25519, n, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s := make([]byte, ed25519.SeedSize)
		rng.Read(s)
		want := ed25519.NewKeyFromSeed(s).Public().(ed25519.PublicKey)
		if !bytes.Equal(reg.keys[i].pub, want) {
			t.Fatalf("key %d changed", i)
		}
	}
}

// TestMACKeyAgreement: the client and the replica derive the same key;
// other replicas' keys differ, and a tampered reply or MAC fails.
func TestMACKeyAgreement(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 4, 1)
	cli := NewClientKeys()
	var keys []MACKey
	for id := int32(0); id < 4; id++ {
		ck, ok := cli.MACKey(reg, id)
		if !ok {
			t.Fatalf("client derived no key for %d", id)
		}
		rk, ok := NewMACKeyCache(reg, id, 8).Key(cli.Public())
		if !ok || rk != ck {
			t.Fatalf("replica %d derived a different key", id)
		}
		for _, other := range keys {
			if other == ck {
				t.Fatal("two replicas share a MAC key")
			}
		}
		keys = append(keys, ck)
		rr := &types.ReadReply{ReqID: 9, Key: "k", ReplicaID: id,
			Committed: &types.CommittedRead{Value: []byte("v")}}
		rr.MAC = SumReadMAC(&ck, rr)
		if !CheckReadMAC(&ck, rr) {
			t.Fatal("MAC does not verify")
		}
		rr.Committed.Value = []byte("w")
		if CheckReadMAC(&ck, rr) {
			t.Fatal("tampered reply verified")
		}
		rr.Committed.Value = []byte("v")
		rr.MAC[0] ^= 1
		if CheckReadMAC(&ck, rr) {
			t.Fatal("tampered MAC verified")
		}
	}
	if _, ok := cli.MACKey(reg, 4); ok {
		t.Fatal("derived a key for an out-of-range node")
	}
	// A second client shares a different key with the same replica.
	k0, _ := cli.MACKey(reg, 0)
	if k1, _ := NewClientKeys().MACKey(reg, 0); k1 == k0 {
		t.Fatal("two clients share a MAC key")
	}
}

// TestCertMAC: SumCertMAC is crypto/hmac's HMAC-SHA256 of the
// certificate reply's payload, for an empty reply and one carrying a
// certificate larger than a pooled buffer, and a change to any field,
// the certificate included, fails CheckCertMAC.
func TestCertMAC(t *testing.T) {
	var k MACKey
	copy(k[:], "certificate-reply-mac-key-000001")
	meta := &types.TxMeta{Timestamp: types.Timestamp{Time: 8, ClientID: 9},
		WriteSet: []types.WriteEntry{{Key: "k", Value: make([]byte, 2*maxPooledMACBuf)}}}
	cert := &types.DecisionCert{TxID: meta.ID(), Decision: types.DecisionCommit}
	for _, r := range []*types.CertReply{
		{ReqID: 3, ShardID: 1, ReplicaID: 2},
		{ReqID: 3, ShardID: 1, ReplicaID: 2, Meta: meta, Cert: cert},
	} {
		m := hmac.New(sha256.New, k[:])
		m.Write(r.AppendPayload(nil))
		r.MAC = SumCertMAC(&k, r)
		if !hmac.Equal(r.MAC[:], m.Sum(nil)) || !CheckCertMAC(&k, r) {
			t.Fatalf("SumCertMAC of %+v is not the HMAC of its payload", r)
		}
		for name, tamper := range map[string]func(*types.CertReply){
			"replica": func(c *types.CertReply) { c.ReplicaID = 4 },
			"request": func(c *types.CertReply) { c.ReqID = 4 },
			"cert":    func(c *types.CertReply) { c.Cert = &types.DecisionCert{TxID: cert.TxID, Decision: types.DecisionAbort} },
			"emptied-or-filled": func(c *types.CertReply) {
				if c.Meta == nil {
					c.Meta, c.Cert = meta, cert
				} else {
					c.Meta, c.Cert = nil, nil
				}
			},
		} {
			c := *r
			tamper(&c)
			if CheckCertMAC(&k, &c) {
				t.Fatalf("%s: tampered reply %+v verified", name, c)
			}
		}
	}
}

// TestMACKeyCacheBounded: however many client keys arrive, concurrently,
// the cache holds at most its bound and still derives correct keys.
func TestMACKeyCacheBounded(t *testing.T) {
	reg := NewRegistry(SchemeEd25519, 1, 1)
	cache := NewMACKeyCache(reg, 0, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				cli := NewClientKeys()
				want, _ := cli.MACKey(reg, 0)
				if got, ok := cache.Key(cli.Public()); !ok || got != want {
					t.Error("cache derived a wrong key")
					return
				}
				if n := cache.Len(); n > 4 {
					t.Errorf("cache holds %d keys, bound is 4", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMACKeyCacheRejectsInvalidClientKey: a low-order point (here the
// zero key a NoProofs client sends) yields no key.
func TestMACKeyCacheRejectsInvalidClientKey(t *testing.T) {
	cache := NewMACKeyCache(NewRegistry(SchemeEd25519, 1, 1), 0, 4)
	if _, ok := cache.Key([32]byte{}); ok {
		t.Fatal("accepted the all-zero exchange key")
	}
	if cache.Len() != 0 {
		t.Fatal("cached a key for an invalid exchange")
	}
}

// TestMACSchemeNone: the NoProofs scheme has no exchange keys.
func TestMACSchemeNone(t *testing.T) {
	reg := NewRegistry(SchemeNone, 4, 1)
	if NewMACKeyCache(reg, 0, 4) != nil {
		t.Fatal("NoProofs registry built a MAC key cache")
	}
	if _, ok := NewClientKeys().MACKey(reg, 0); ok {
		t.Fatal("NoProofs registry yielded a MAC key")
	}
}
