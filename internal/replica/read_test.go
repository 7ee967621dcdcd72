package replica

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// readFrom sends one read of key from a fresh client address and returns
// the reply the replica sent back, nil (with the test failed) if none
// came. Safe to call from several goroutines.
func readFrom(t *testing.T, r *Replica, net *transport.Local, id int32, key [32]byte) *types.ReadReply {
	t.Helper()
	addr := transport.ClientAddr(id)
	got := make(chan *types.ReadReply, 1)
	net.Register(addr, transport.HandlerFunc(func(_ transport.Addr, msg any) {
		if rr, ok := msg.(*types.ReadReply); ok {
			got <- rr
		}
	}))
	r.onRead(addr, &types.ReadRequest{ReqID: 1, ClientID: uint64(id), Key: "k",
		Ts: types.Timestamp{Time: 10, ClientID: uint64(id)}, ClientKey: key})
	select {
	case rr := <-got:
		return rr
	case <-time.After(5 * time.Second):
		t.Errorf("client %d: no read reply", id)
		return nil
	}
}

// TestReadMACKeyCacheBounded: read replies carry a MAC the requesting
// client verifies under the key it derives, no signature is made, and
// however many client keys read concurrently the replica's key cache
// stays within its bound.
func TestReadMACKeyCacheBounded(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	const bound = 8
	r.macKeys = cryptoutil.NewMACKeyCache(r.cfg.Registry, r.cfg.SignerID, bound)
	r.store.ApplyGenesis("k", []byte("v0"))

	var wg sync.WaitGroup
	for g := int32(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int32(0); i < 8; i++ {
				cli := cryptoutil.NewClientKeys()
				rr := readFrom(t, r, net, 100+8*g+i, cli.Public())
				if rr == nil {
					return
				}
				k, ok := cli.MACKey(r.cfg.Registry, r.cfg.SignerID)
				if !ok || !cryptoutil.CheckReadMAC(&k, rr) {
					t.Error("read reply MAC does not verify under the client's key")
					return
				}
				if n := r.macKeys.Len(); n > bound {
					t.Errorf("MAC key cache holds %d keys, bound is %d", n, bound)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := r.Stats.SigsSigned.Load(); n != 0 {
		t.Fatalf("reads made %d signatures, want 0", n)
	}
}

// TestReadDropsInvalidClientKey: a read whose exchange key yields no
// valid MAC key gets no reply (the client could not check one).
func TestReadDropsInvalidClientKey(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	addr := transport.ClientAddr(7)
	got := make(chan any, 1)
	net.Register(addr, transport.HandlerFunc(func(_ transport.Addr, msg any) { got <- msg }))
	r.onRead(addr, &types.ReadRequest{ReqID: 1, ClientID: 7, Key: "k", Ts: types.Timestamp{Time: 10, ClientID: 7}})
	select {
	case m := <-got:
		t.Fatalf("replica answered a read with an invalid exchange key: %T", m)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestReadSchemeNoneReplies: under the NoProofs scheme the replica keeps
// no MAC keys and answers reads without a MAC.
func TestReadSchemeNoneReplies(t *testing.T) {
	net := transport.NewLocal()
	defer net.Close()
	r := New(Config{
		Shard: 0, Index: 0, F: 1,
		DeltaMicros: 60_000_000,
		Registry:    cryptoutil.NewRegistry(cryptoutil.SchemeNone, 6, 1),
		SignerOf:    quorum.SignerOf(func(s, i int32) int32 { return i }),
		Net:         net,
	})
	defer r.Close()
	r.store.ApplyGenesis("k", []byte("v0"))
	rr := readFrom(t, r, net, 7, [32]byte{})
	if rr == nil {
		t.FailNow()
	}
	if rr.MAC != ([32]byte{}) || rr.Committed == nil || string(rr.Committed.Value) != "v0" {
		t.Fatalf("NoProofs read reply %+v, want v0 with no MAC", rr)
	}
}
