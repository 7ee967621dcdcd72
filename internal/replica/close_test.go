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

// newTestReplica builds one replica (f=1 shard 0 index 0) on a fresh
// Local network.
func newTestReplica(t *testing.T, batch int) (*Replica, *transport.Local) {
	t.Helper()
	net := transport.NewLocal()
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 6, 1)
	r := New(Config{
		Shard: 0, Index: 0, F: 1,
		BatchSize: batch,
		Registry:  reg,
		SignerID:  0,
		SignerOf:  quorum.SignerOf(func(s, i int32) int32 { return i }),
		Net:       net,
	})
	return r, net
}

func st1For(key string, ts uint64) *types.ST1Request {
	return &types.ST1Request{
		ReqID: 1, ClientID: 9,
		Meta: &types.TxMeta{
			Timestamp: types.Timestamp{Time: ts, ClientID: 9},
			WriteSet:  []types.WriteEntry{{Key: key, Value: []byte("v")}},
			Shards:    []int32{0},
		},
	}
}

// TestRedeliveryAfterCloseDoesNotSign: a duplicate message delivered after
// Replica.Close must be dropped — no panic, no signature produced through
// the closed batcher. Before the ingest pipeline drained its pool on
// Close, a late duplicate could race the shutdown into a handler that
// enqueued signing work on a closed batcher.
func TestRedeliveryAfterCloseDoesNotSign(t *testing.T) {
	r, net := newTestReplica(t, 4)
	defer net.Close()
	client := transport.ClientAddr(9)
	var gotReplies sync.WaitGroup
	gotReplies.Add(1)
	once := sync.Once{}
	net.Register(client, transport.HandlerFunc(func(_ transport.Addr, msg any) {
		if _, ok := msg.(*types.ST1Reply); ok {
			once.Do(gotReplies.Done)
		}
	}))

	m := st1For("x", 10)
	net.Send(client, r.Addr(), m)
	gotReplies.Wait() // the live replica answered

	r.Close()
	signed := r.Stats.SigsSigned.Load()

	// Re-deliver the same ST1 (and a few friends) straight into the
	// closed replica, as a recovering client would.
	for i := 0; i < 8; i++ {
		r.Deliver(client, m)
		r.Deliver(client, st1For("y", 20+uint64(i)))
	}
	time.Sleep(20 * time.Millisecond)
	if got := r.Stats.SigsSigned.Load(); got != signed {
		t.Fatalf("closed replica signed %d new payloads", got-signed)
	}
	r.Close() // idempotent
}

// TestCloseDrainsInflightHandlers: messages accepted before Close must be
// fully processed (their signatures produced) before Close returns, and a
// burst racing Close must never panic the pool or the batcher.
func TestCloseDrainsInflightHandlers(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	client := transport.ClientAddr(9)
	net.Register(client, transport.HandlerFunc(func(transport.Addr, any) {}))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r.Deliver(client, st1For("k", uint64(1000*g+i+1)))
			}
		}()
	}
	// Close while the burst is in flight.
	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain the pool")
	}
	// Every message either completed before the close barrier (and was
	// signed) or was dropped at Deliver; nothing may sign afterwards.
	after := r.Stats.SigsSigned.Load()
	time.Sleep(20 * time.Millisecond)
	if got := r.Stats.SigsSigned.Load(); got != after {
		t.Fatalf("signing continued after Close: %d -> %d", after, got)
	}
}
