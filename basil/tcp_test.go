package basil_test

import (
	"fmt"
	"testing"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/replica"
	"repro/internal/transport"
)

// TestTCPDeployment runs a full shard of replicas, each on its own TCP
// network (modeling separate processes), plus a TCP client, and commits a
// transaction end to end — exercising exactly what cmd/basil-server and
// cmd/basil-kv wire up.
func TestTCPDeployment(t *testing.T) {
	const f = 1
	n := 5*f + 1
	book := map[transport.Addr]string{}
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, n, 1)
	signerOf := quorum.SignerOf(func(s, i int32) int32 { return i })

	var nets []*transport.TCP
	var reps []*replica.Replica
	for i := 0; i < n; i++ {
		tn, err := transport.NewTCP("127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, tn)
		book[transport.ReplicaAddr(0, int32(i))] = tn.ListenAddr()
	}
	defer func() {
		for _, r := range reps {
			r.Close()
		}
		for _, tn := range nets {
			tn.Close()
		}
	}()
	for i := 0; i < n; i++ {
		r := replica.New(replica.Config{
			Shard: 0, Index: int32(i), F: f,
			Registry: reg,
			SignerID: int32(i),
			SignerOf: signerOf,
			Net:      nets[i],
		})
		r.LoadGenesis("x", []byte("tcp-genesis"))
		reps = append(reps, r)
	}

	clientNet, err := transport.NewTCP("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer clientNet.Close()
	c := client.New(client.Config{
		ID: 500, F: f, NumShards: 1,
		ShardOf:  func(string) int32 { return 0 },
		Registry: reg, SignerOf: signerOf, Net: clientNet,
	})

	tx := c.Begin()
	v, err := tx.Read("x")
	if err != nil {
		t.Fatalf("tcp read: %v", err)
	}
	if string(v) != "tcp-genesis" {
		t.Fatalf("read %q", v)
	}
	tx.Write("x", []byte("tcp-committed"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("tcp commit: %v", err)
	}

	tx2 := c.Begin()
	v2, err := tx2.Read("x")
	if err != nil {
		t.Fatalf("tcp read2: %v", err)
	}
	tx2.Abort()
	if string(v2) != "tcp-committed" {
		t.Fatalf("after commit read %q", v2)
	}
	if got := fmt.Sprint(c.Stats.TxCommitted.Load()); got != "1" {
		t.Fatalf("committed count %s", got)
	}
}

// TestTCPLoopbackCluster exercises the same socket mesh through the public
// API: basil.Options.TCPLoopback gives every replica and client its own
// TCP transport on loopback, so the whole protocol crosses the framed
// canonical wire format.
func TestTCPLoopbackCluster(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 2, TCPLoopback: true})
	defer cl.Close()
	cl.Load("a", []byte("1"))
	cl.Load("b", []byte("2"))

	c := cl.NewClient()
	err := c.Run(func(tx *basil.Txn) error {
		va, err := tx.Read("a")
		if err != nil {
			return err
		}
		vb, err := tx.Read("b")
		if err != nil {
			return err
		}
		tx.Write("a", append(va, vb...))
		return nil
	})
	if err != nil {
		t.Fatalf("tcp-loopback txn: %v", err)
	}

	tx := c.Begin()
	v, err := tx.Read("a")
	tx.Abort()
	if err != nil {
		t.Fatalf("tcp-loopback read-back: %v", err)
	}
	if string(v) != "12" {
		t.Fatalf("read %q, want %q", v, "12")
	}
}
