package client

import (
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/replica"
	"repro/internal/transport"
)

// TestManualWiring builds a shard by hand from replica.New and New — the
// construction cmd/basil-server and cmd/basil-kv do over TCP — and
// commits a transaction through it.
func TestManualWiring(t *testing.T) {
	const f = 1
	n := 5*f + 1
	net := transport.NewLocal()
	defer net.Close()
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, n, 1)
	signerOf := quorum.SignerOf(func(s, i int32) int32 { return i })

	var reps []*replica.Replica
	for i := 0; i < n; i++ {
		r := replica.New(replica.Config{
			Shard: 0, Index: int32(i), F: f,
			DeltaMicros: 60_000_000,
			Registry:    reg, SignerID: int32(i), SignerOf: signerOf,
			Net: net,
		})
		r.LoadGenesis("k", []byte("v0"))
		reps = append(reps, r)
	}
	defer func() {
		for _, r := range reps {
			r.Close()
		}
	}()

	c := New(Config{
		ID: 1, F: f, NumShards: 1,
		ShardOf:  func(string) int32 { return 0 },
		Registry: reg, SignerOf: signerOf, Net: net,
	})
	tx := c.Begin()
	v, err := tx.Read("k")
	if err != nil || string(v) != "v0" {
		t.Fatalf("read: %q %v", v, err)
	}
	tx.Write("k", []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if c.Stats.TxCommitted.Load() != 1 {
		t.Fatal("commit not counted")
	}
}
