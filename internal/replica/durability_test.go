package replica

import (
	"os"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// durableConfig is newTestReplica's config with a data dir and a tight
// group-commit window.
func durableConfig(net transport.Network, dir string) Config {
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 6, 1)
	return Config{
		Shard: 0, Index: 0, F: 1,
		BatchSize: 1,
		Registry:  reg,
		SignerID:  0,
		SignerOf:  quorum.SignerOf(func(s, i int32) int32 { return i }),
		Net:       net,
		DataDir:   dir,
		// Tests that exercise the ST2 path inject decisions without
		// building full vote tallies.
		AllowUnvalidatedST2: true,
	}
}

// captureClient registers a client address whose replies land on the
// returned channels.
func captureClient(net *transport.Local, id int32) (transport.Addr, chan *types.ST1Reply, chan *types.ST2Reply) {
	addr := transport.ClientAddr(id)
	st1 := make(chan *types.ST1Reply, 32)
	st2 := make(chan *types.ST2Reply, 32)
	net.Register(addr, transport.HandlerFunc(func(_ transport.Addr, msg any) {
		switch m := msg.(type) {
		case *types.ST1Reply:
			st1 <- m
		case *types.ST2Reply:
			st2 <- m
		}
	}))
	return addr, st1, st2
}

// TestRestartReservesSameVote is the core equivocation test: a replica
// that voted pre-crash must re-serve the *same* vote after Restore, and
// must refuse a conflicting transaction its pre-crash state would have
// refused — even though all of that state was in memory when it died.
func TestRestartReservesSameVote(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	client, st1, _ := captureClient(net, 9)

	// A: reads x (genesis) at ts 100, writes y. The replica votes commit
	// and installs A's reader record on x.
	r.LoadGenesis("x", []byte("v0"))
	metaA := &types.TxMeta{
		Timestamp: types.Timestamp{Time: 100, ClientID: 9},
		ReadSet:   []types.ReadEntry{{Key: "x", Version: types.Timestamp{}}},
		WriteSet:  []types.WriteEntry{{Key: "y", Value: []byte("vA")}},
		Shards:    []int32{0},
	}
	idA := metaA.ID()
	r.Deliver(client, &types.ST1Request{ReqID: 1, ClientID: 9, Meta: metaA})
	rep := awaitReply(t, st1, idA)
	if rep.Vote != types.VoteCommit {
		t.Fatalf("setup: vote for A = %v", rep.Vote)
	}

	// Crash. All in-memory state dies with the process.
	r.Close()

	r2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r2.Close()

	// Same ST1 re-delivered: the restarted replica must re-serve the same
	// commit vote it promised before the crash.
	r2.Deliver(client, &types.ST1Request{ReqID: 2, ClientID: 9, Meta: metaA})
	rep2 := awaitReply(t, st1, idA)
	if rep2.Vote != types.VoteCommit {
		t.Fatalf("restarted replica changed its vote: %v", rep2.Vote)
	}

	// B writes x at ts 50 — between A's read version (0) and A's
	// timestamp (100) — so committing B would invalidate the read A's
	// commit vote validated. The pre-crash replica would have voted
	// abort; the restarted one must too (a forgetful replica voting
	// commit here is exactly the equivocation durability prevents).
	metaB := &types.TxMeta{
		Timestamp: types.Timestamp{Time: 50, ClientID: 7},
		WriteSet:  []types.WriteEntry{{Key: "x", Value: []byte("vB")}},
		Shards:    []int32{0},
	}
	idB := metaB.ID()
	r2.Deliver(client, &types.ST1Request{ReqID: 3, ClientID: 7, Meta: metaB})
	repB := awaitReply(t, st1, idB)
	if repB.Vote != types.VoteAbort {
		t.Fatalf("restarted replica voted %v on a conflict its pre-crash state refused", repB.Vote)
	}
}

// TestRestartReservesLoggedDecision: a logged ST2 decision must survive
// the crash and be re-served to recovery requests.
func TestRestartReservesLoggedDecision(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	client, st1, st2 := captureClient(net, 9)

	m := st1For("k", 10)
	id := m.Meta.ID()
	r.Deliver(client, m)
	awaitReply(t, st1, id)
	r.Deliver(client, &types.ST2Request{
		ReqID: 2, ClientID: 9, TxID: id, Meta: m.Meta, Decision: types.DecisionCommit,
	})
	d := awaitST2(t, st2, id)
	if d.Decision != types.DecisionCommit {
		t.Fatalf("setup: logged decision = %v", d.Decision)
	}

	r.Close()
	r2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r2.Close()

	// A recovery ST1 must surface the logged decision (RPDecision), same
	// decision as pre-crash.
	r2.Deliver(client, &types.ST1Request{ReqID: 3, ClientID: 9, Meta: m.Meta, Recovery: true})
	for {
		rep := awaitReply(t, st1, id)
		if rep.RPKind != types.RPDecision {
			continue // the vote reply also arrives; we want the decision
		}
		if st2r := rep.Evidence().ST2R; rep.Decision != types.DecisionCommit || st2r == nil || st2r.Decision != types.DecisionCommit {
			t.Fatalf("restarted replica re-served decision %v", rep.Decision)
		}
		return
	}
}

// TestRestartReservesFinalizedOutcome: a writeback applied pre-crash is
// part of the store after restart — committed data survives.
func TestRestartReservesFinalizedOutcome(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	client, st1, _ := captureClient(net, 9)

	m := st1For("k", 10)
	id := m.Meta.ID()
	r.Deliver(client, m)
	awaitReply(t, st1, id)
	// Finalize directly (a full valid cert needs a whole shard; the
	// replica's own finalize path is what logs the record).
	r.finalize(id, m.Meta, types.DecisionCommit, nil, types.TraceContext{})
	r.Close()

	r2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r2.Close()
	if r2.Store().TxStatusOf(id) != store.StatusCommitted {
		t.Fatal("finalized commit lost across restart")
	}
	if ver, val, ok := r2.Store().LatestCommitted("k"); !ok || ver != m.Meta.Timestamp || string(val) != "v" {
		t.Fatalf("committed write lost: ok=%v ver=%v val=%q", ok, ver, val)
	}
}

// TestRestartFromCheckpoint: same guarantees when the state comes from a
// checkpoint plus a log suffix instead of a full replay, and the
// superseded segments really are gone.
func TestRestartFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	client, st1, _ := captureClient(net, 9)

	// Pre-checkpoint history: an old committed tx and a still-prepared
	// vote.
	mOld := st1For("old", 10)
	r.Deliver(client, mOld)
	awaitReply(t, st1, mOld.Meta.ID())
	r.finalize(mOld.Meta.ID(), mOld.Meta, types.DecisionCommit, nil, types.TraceContext{})

	mPrep := st1For("prep", 50)
	idPrep := mPrep.Meta.ID()
	r.Deliver(client, mPrep)
	if rep := awaitReply(t, st1, idPrep); rep.Vote != types.VoteCommit {
		t.Fatalf("setup vote: %v", rep.Vote)
	}

	// Checkpoint above the committed tx but below the prepared one.
	if err := r.Checkpoint(types.Timestamp{Time: 30}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint history: one more vote in the log suffix.
	mNew := st1For("new", 60)
	idNew := mNew.Meta.ID()
	r.Deliver(client, mNew)
	awaitReply(t, st1, idNew)
	r.Close()

	r2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r2.Close()

	// Old committed state: present (from the snapshot).
	if _, _, ok := r2.Store().LatestCommitted("old"); !ok {
		t.Fatal("checkpointed committed write lost")
	}
	// Both votes re-served identically.
	for _, m := range []*types.ST1Request{mPrep, mNew} {
		m := &types.ST1Request{ReqID: 9, ClientID: 9, Meta: m.Meta}
		r2.Deliver(client, m)
		if rep := awaitReply(t, st1, m.Meta.ID()); rep.Vote != types.VoteCommit {
			t.Fatalf("vote for %v not re-served: %v", m.Meta.ID(), rep.Vote)
		}
	}
}

// TestRestartWithdrawsUnpromisedPrepares: a transaction whose check
// passed but whose vote never reached disk (crash in the window between
// prepare and the group-commit fsync... modeled here by a dependency
// wait, which defers the vote indefinitely) must be withdrawn on
// restart: nothing was promised, and keeping the prepared entry without
// a vote would wedge the slot.
func TestRestartWithdrawsUnpromisedPrepares(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	client, st1, _ := captureClient(net, 9)

	// D: prepared with a commit vote (logged).
	mD := st1For("d", 10)
	idD := mD.Meta.ID()
	r.Deliver(client, mD)
	awaitReply(t, st1, idD)
	// X depends on D, so its vote defers — X is prepared in the store but
	// no vote record exists when the crash hits.
	metaX := &types.TxMeta{
		Timestamp: types.Timestamp{Time: 20, ClientID: 9},
		WriteSet:  []types.WriteEntry{{Key: "x", Value: []byte("v")}},
		Deps:      []types.Dependency{{TxID: idD, Version: mD.Meta.Timestamp}},
		Shards:    []int32{0},
	}
	idX := metaX.ID()
	r.Deliver(client, &types.ST1Request{ReqID: 2, ClientID: 9, Meta: metaX})
	waitFor(t, func() bool { return r.Store().TxStatusOf(idX) == store.StatusPrepared })
	// Checkpoint so X's prepared entry reaches disk (in the store
	// snapshot) even though no vote for it ever will — the exact shape
	// the restart sweep must clean up.
	if err := r.Checkpoint(types.Timestamp{Time: 5}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	r.Close()

	r2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r2.Close()
	if st := r2.Store().TxStatusOf(idX); st != store.StatusUnknown {
		t.Fatalf("unpromised prepare survived restart as %v", st)
	}
	// D's promise, by contrast, is intact.
	if st := r2.Store().TxStatusOf(idD); st != store.StatusPrepared {
		t.Fatalf("promised prepare lost: %v", st)
	}
}

// TestRestartRTSFloorConservative: after a restart the replica refuses
// writers below the highest replayed timestamp — the conservative
// stand-in for the RTS entries the crash erased.
func TestRestartRTSFloorConservative(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	client, st1, _ := captureClient(net, 9)

	m := st1For("k", 1000)
	r.Deliver(client, m)
	awaitReply(t, st1, m.Meta.ID())
	r.Close()

	r2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r2.Close()
	// A writer below ts 1000 (which a pre-crash read might have raced)
	// is refused...
	mLow := st1For("other", 500)
	r2.Deliver(client, mLow)
	if rep := awaitReply(t, st1, mLow.Meta.ID()); rep.Vote != types.VoteAbort {
		t.Fatalf("writer below restart floor voted %v", rep.Vote)
	}
	// ...while fresh, higher-timestamped traffic proceeds.
	mHigh := st1For("other2", 2000)
	r2.Deliver(client, mHigh)
	if rep := awaitReply(t, st1, mHigh.Meta.ID()); rep.Vote != types.VoteCommit {
		t.Fatalf("writer above restart floor voted %v", rep.Vote)
	}
}

// TestRestartNoDataDirStaysInMemory: an empty DataDir keeps the original
// behavior and writes nothing to disk.
func TestRestartNoDataDirStaysInMemory(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	if r.wal != nil {
		t.Fatal("replica without DataDir opened a WAL")
	}
	if st := r.WALStats(); st.Appends != 0 || st.Syncs != 0 {
		t.Fatalf("stats nonzero: %+v", st)
	}
}

// awaitST2 drains ch until an ST2 reply for id arrives.
func awaitST2(t *testing.T, ch <-chan *types.ST2Reply, id types.TxID) *types.ST2Reply {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case rep := <-ch:
			if rep.TxID == id {
				return rep
			}
		case <-deadline:
			t.Fatalf("no ST2 reply for %x", id[:4])
		}
	}
}

// waitFor polls cond with a deadline (replica handlers run on the pool).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALFilesActuallyWritten sanity-checks that the data dir holds a
// segment with content after traffic (guards against a silently
// disconnected logging path).
func TestWALFilesActuallyWritten(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	defer r.Close()
	client, st1, _ := captureClient(net, 9)
	m := st1For("k", 10)
	r.Deliver(client, m)
	awaitReply(t, st1, m.Meta.ID())
	st := r.WALStats()
	if st.Appends == 0 || st.Syncs == 0 {
		t.Fatalf("no WAL activity after a vote: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("data dir empty: %v", err)
	}
}
