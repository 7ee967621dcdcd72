package client

import (
	"testing"
	"time"

	"repro/internal/types"
)

func TestMarkRecoveryDedupes(t *testing.T) {
	c := &Client{recovered: make(map[types.TxID]time.Time)}
	var id types.TxID
	id[0] = 1
	if !c.markRecovery(id) {
		t.Fatal("first attempt must be allowed")
	}
	if c.markRecovery(id) {
		t.Fatal("immediate retry must be deduplicated")
	}
	var other types.TxID
	other[0] = 2
	if !c.markRecovery(other) {
		t.Fatal("unrelated transaction must not be deduplicated")
	}
	// Expired entries are retried.
	c.recovered[id] = time.Now().Add(-time.Second)
	if !c.markRecovery(id) {
		t.Fatal("expired dedup window must allow a retry")
	}
}

func TestTallyClassificationHelpers(t *testing.T) {
	tallies := newTallies([]int32{0, 1}, 6)
	if len(tallies) != 2 || tallies[0].shard != 0 || tallies[1].shard != 1 {
		t.Fatal("tallies not initialized per shard")
	}
	r := &types.ST1Reply{ShardID: 0, ReplicaID: 3, Vote: types.VoteCommit}
	if !tallies[0].add(r) {
		t.Fatal("first vote rejected")
	}
	if tallies[0].add(r) {
		t.Fatal("duplicate replica vote accepted")
	}
	if len(tallies[0].commits) != 1 || len(tallies[0].aborts) != 0 {
		t.Fatal("vote misfiled")
	}
}

func TestTxnMetaSnapshotDeterministic(t *testing.T) {
	txn := &Txn{
		c:        &Client{cfg: Config{ShardOf: func(string) int32 { return 0 }}},
		ts:       types.Timestamp{Time: 9, ClientID: 4},
		readKeys: map[string]bool{},
		writes:   map[string][]byte{},
		deps:     map[types.TxID]types.Dependency{},
		depMetas: map[types.TxID]*types.TxMeta{},
	}
	txn.Write("b", []byte("2"))
	txn.Write("a", []byte("1"))
	txn.reads = append(txn.reads, types.ReadEntry{Key: "r", Version: types.Timestamp{Time: 3}})
	m1 := txn.MetaSnapshot()
	m2 := txn.MetaSnapshot()
	if m1.ID() != m2.ID() {
		t.Fatal("meta snapshot nondeterministic")
	}
	if len(m1.WriteSet) != 2 || m1.WriteSet[0].Key != "b" || m1.WriteSet[1].Key != "a" {
		t.Fatal("write order not preserved")
	}
	if len(m1.Shards) != 1 || m1.Shards[0] != 0 {
		t.Fatalf("shards wrong: %v", m1.Shards)
	}
}

func TestWriteOverwriteKeepsSingleEntry(t *testing.T) {
	txn := &Txn{
		c:        &Client{cfg: Config{ShardOf: func(string) int32 { return 0 }}},
		readKeys: map[string]bool{},
		writes:   map[string][]byte{},
	}
	txn.Write("k", []byte("v1"))
	txn.Write("k", []byte("v2"))
	m := txn.MetaSnapshot()
	if len(m.WriteSet) != 1 || string(m.WriteSet[0].Value) != "v2" {
		t.Fatalf("overwrite produced %v", m.WriteSet)
	}
}
