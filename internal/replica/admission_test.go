package replica

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// Admission-control unit tests: the bounded dispatch queue, explicit
// Overloaded shedding, and the reputation scorer. These drive the
// admission layer directly (admit without release models handlers still
// running), with a Local network capturing the shed replies.

func newQueuedReplica(t *testing.T, queue int) (*Replica, *transport.Local) {
	t.Helper()
	net := transport.NewLocal()
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 6, 1)
	r := New(Config{
		Shard: 0, Index: 0, F: 1,
		BatchSize:     1,
		DispatchQueue: queue,
		Registry:      reg,
		SignerID:      0,
		SignerOf:      quorum.SignerOf(func(s, i int32) int32 { return i }),
		Net:           net,
	})
	return r, net
}

func captureOverloads(net *transport.Local, id int32) (transport.Addr, chan *types.Overloaded) {
	addr := transport.ClientAddr(id)
	ch := make(chan *types.Overloaded, 64)
	net.Register(addr, transport.HandlerFunc(func(_ transport.Addr, msg any) {
		if m, ok := msg.(*types.Overloaded); ok {
			ch <- m
		}
	}))
	return addr, ch
}

// TestAdmissionHardCapSheds: arrivals beyond the inflight cap are refused,
// counted, and answered with Overloaded carrying the request id; released
// slots admit again.
func TestAdmissionHardCapSheds(t *testing.T) {
	r, net := newQueuedReplica(t, 4)
	defer net.Close()
	defer r.Close()
	client, overloads := captureOverloads(net, 9)

	admitted := 0
	for i := 0; i < 6; i++ {
		if r.adm.admit(client, &types.ST1Request{ReqID: uint64(i + 1), ClientID: 9}) {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted %d, want 4 (the cap)", admitted)
	}
	if got := r.Stats.Shed.Load(); got != 2 {
		t.Fatalf("Shed = %d, want 2", got)
	}
	if d := r.adm.depth(); d != 4 {
		t.Fatalf("depth = %d, want 4", d)
	}
	for i := 0; i < 2; i++ {
		ov := awaitOverload(t, overloads)
		if ov.ReqID != 5 && ov.ReqID != 6 {
			t.Fatalf("Overloaded for ReqID %d, want 5 or 6", ov.ReqID)
		}
		if ov.RetryAfterMicros != retryAfterMicros {
			t.Fatalf("RetryAfter = %d, want %d (honest client)", ov.RetryAfterMicros, retryAfterMicros)
		}
		if ov.ShardID != 0 || ov.ReplicaID != 0 {
			t.Fatalf("Overloaded shard/replica = %d/%d", ov.ShardID, ov.ReplicaID)
		}
	}

	// Slots return on release; the next arrival is admitted again.
	for i := 0; i < 4; i++ {
		r.adm.release()
	}
	if d := r.adm.depth(); d != 0 {
		t.Fatalf("depth after release = %d, want 0", d)
	}
	if !r.adm.admit(client, &types.ST1Request{ReqID: 7, ClientID: 9}) {
		t.Fatal("arrival after release was shed")
	}
	r.adm.release()
}

// TestAdmissionShedCertFetchAnswersEmpty: a shed certificate fetch is
// answered with an empty certificate reply MACed under the client's
// cached key, which the client counts as this replica's answer, not with
// an unauthenticated Overloaded. A fetch naming a key the replica has not
// cached is shed silently, without a key exchange.
func TestAdmissionShedCertFetchAnswersEmpty(t *testing.T) {
	r, net := newQueuedReplica(t, 1)
	defer net.Close()
	defer r.Close()
	addr := transport.ClientAddr(9)
	got := make(chan any, 8)
	net.Register(addr, transport.HandlerFunc(func(_ transport.Addr, msg any) { got <- msg }))
	if !r.adm.admit(addr, &types.ST1Request{ReqID: 1, ClientID: 9}) {
		t.Fatal("first arrival was shed")
	}
	defer r.adm.release()

	ck := cryptoutil.NewClientKeys()
	k, _ := ck.MACKey(r.cfg.Registry, r.cfg.SignerID)
	if _, ok := r.macKeys.Key(ck.Public()); !ok { // as the client's read would
		t.Fatal("replica derived no MAC key")
	}
	if r.adm.admit(addr, &types.CertRequest{ReqID: 2, ClientID: 9, ClientKey: ck.Public()}) {
		t.Fatal("fetch admitted over the cap")
	}
	select {
	case msg := <-got:
		cr, ok := msg.(*types.CertReply)
		if !ok || cr.ReqID != 2 || cr.ReplicaID != 0 || cr.Meta != nil || cr.Cert != nil || !cryptoutil.CheckCertMAC(&k, cr) {
			t.Fatalf("shed fetch answered with %#v, want an empty, MACed certificate reply", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shed fetch not answered")
	}

	cached := r.macKeys.Len()
	other := cryptoutil.NewClientKeys()
	if r.adm.admit(addr, &types.CertRequest{ReqID: 3, ClientID: 9, ClientKey: other.Public()}) {
		t.Fatal("fetch admitted over the cap")
	}
	select {
	case msg := <-got:
		t.Fatalf("fetch with an uncached key answered with %#v", msg)
	case <-time.After(50 * time.Millisecond):
	}
	if n := r.macKeys.Len(); n != cached {
		t.Fatalf("shedding derived a key: cache holds %d, want %d", n, cached)
	}
}

func awaitOverload(t *testing.T, ch chan *types.Overloaded) *types.Overloaded {
	t.Helper()
	select {
	case ov := <-ch:
		return ov
	case <-time.After(5 * time.Second):
		t.Fatal("no Overloaded reply")
		return nil
	}
}

// TestAdmissionDisabled: a negative DispatchQueue turns admission off —
// unlimited seed behavior, nothing counted, nothing shed.
func TestAdmissionDisabled(t *testing.T) {
	r, net := newQueuedReplica(t, -1)
	defer net.Close()
	defer r.Close()
	client := transport.ClientAddr(9)
	for i := 0; i < 10_000; i++ {
		if !r.adm.admit(client, &types.ST1Request{ReqID: uint64(i), ClientID: 9}) {
			t.Fatal("disabled admission shed a message")
		}
	}
	if r.Stats.Shed.Load() != 0 || r.adm.depth() != 0 {
		t.Fatalf("disabled admission tracked state: shed=%d depth=%d",
			r.Stats.Shed.Load(), r.adm.depth())
	}
}

// TestAdmissionSoftShedSuspectsOnly: above 3/4 occupancy a client with
// misbehavior mass is shed early (with the long RetryAfter), while an
// honest client at the same depth is still admitted. Below the soft
// threshold even the suspect gets in.
func TestAdmissionSoftShedSuspectsOnly(t *testing.T) {
	r, net := newQueuedReplica(t, 8)
	defer net.Close()
	defer r.Close()
	honest, _ := captureOverloads(net, 9)
	suspect, suspectOv := captureOverloads(net, 666)

	// A suspect: abandoned prepared transactions (the worst signal),
	// nothing committed. bad = 4*3 = 12 >= 8 and > 4*commits = 0.
	sc := r.adm.score(666)
	sc.abandons.Store(3)
	if !sc.suspect() {
		t.Fatal("abandon-heavy client not a suspect")
	}

	// Below the soft threshold (3/4 of 8 = 6): the suspect is admitted.
	if !r.adm.admit(suspect, &types.ST1Request{ReqID: 100, ClientID: 666}) {
		t.Fatal("suspect shed below the soft threshold")
	}

	// Fill to 7/8 with honest traffic.
	for i := 0; r.adm.depth() < 7; i++ {
		if !r.adm.admit(honest, &types.ST1Request{ReqID: uint64(i + 1), ClientID: 9}) {
			t.Fatal("honest client shed below the hard cap")
		}
	}

	// Above the soft threshold: suspect shed with the 10x hint, honest
	// still admitted up to the hard cap.
	if r.adm.admit(suspect, &types.ST1Request{ReqID: 101, ClientID: 666}) {
		t.Fatal("suspect admitted above the soft threshold")
	}
	if got := r.Stats.ShedReputation.Load(); got != 1 {
		t.Fatalf("ShedReputation = %d, want 1", got)
	}
	ov := awaitOverload(t, suspectOv)
	if ov.RetryAfterMicros != retryAfterSuspectMicros {
		t.Fatalf("suspect RetryAfter = %d, want %d", ov.RetryAfterMicros, retryAfterSuspectMicros)
	}
	if !r.adm.admit(honest, &types.ST1Request{ReqID: 8, ClientID: 9}) {
		t.Fatal("honest client shed by the reputation path")
	}
}

// TestReputationVolumeAlone: raw request volume never makes a suspect —
// a hot honest client with zero bad outcomes stays clean.
func TestReputationVolumeAlone(t *testing.T) {
	var s clientScore
	s.requests.Store(1 << 20)
	if s.suspect() {
		t.Fatal("volume alone made a suspect")
	}
	// Bad mass balanced by commits: still not a suspect.
	s.aborts.Store(10)
	s.commits.Store(10) // good = 40 > bad = 10
	if s.suspect() {
		t.Fatal("productive client with some aborts marked suspect")
	}
	// Stale replays with nothing finished: suspect.
	var abuser clientScore
	abuser.stales.Store(20)
	if !abuser.suspect() {
		t.Fatal("stale-replay abuser not a suspect")
	}
}

// TestReputationDecay: counters halve once the event mass passes the
// decay limit, so a reformed client sheds its history.
func TestReputationDecay(t *testing.T) {
	var s clientScore
	s.abandons.Store(scoreDecayLimit) // forces decay inside suspect()
	s.commits.Store(4)
	_ = s.suspect()
	if got := s.abandons.Load(); got != scoreDecayLimit/2 {
		t.Fatalf("abandons after decay = %d, want %d", got, scoreDecayLimit/2)
	}
	if got := s.commits.Load(); got != 2 {
		t.Fatalf("commits after decay = %d, want 2", got)
	}
}

// TestReputationTableBounded: the per-client table evicts at its cap
// instead of growing with every fresh (possibly fabricated) client id.
func TestReputationTableBounded(t *testing.T) {
	r, net := newQueuedReplica(t, 8)
	defer net.Close()
	defer r.Close()
	for i := 0; i < maxTrackedClients+100; i++ {
		r.adm.score(uint64(i))
	}
	r.adm.mu.Lock()
	n := len(r.adm.clients)
	r.adm.mu.Unlock()
	if n > maxTrackedClients {
		t.Fatalf("client table grew to %d, cap is %d", n, maxTrackedClients)
	}
}

// TestReputationFedByProtocolOutcomes: the replica's own handlers feed the
// scorer — an abort vote on a client's transaction lands on its score.
func TestReputationFedByProtocolOutcomes(t *testing.T) {
	r, net := newQueuedReplica(t, 64)
	defer net.Close()
	defer r.Close()
	client, st1, _ := captureClient(net, 9)

	// Score the client by admitting one message for it (the scorer only
	// tracks clients admission has seen).
	if !r.adm.admit(client, &types.ST1Request{ReqID: 99, ClientID: 9}) {
		t.Fatal("setup admit shed")
	}
	r.adm.release()

	// Commit a write of k at ts 10, then prepare a transaction at ts 20
	// that claims to have read k at the genesis version: MVTSO sees the
	// newer committed write between the read version and the timestamp
	// and votes abort.
	a := st1For("k", 10)
	idA := a.Meta.ID()
	r.Deliver(client, a)
	if rep := awaitReply(t, st1, idA); rep.Vote != types.VoteCommit {
		t.Fatalf("first prepare voted %v", rep.Vote)
	}
	r.finalize(idA, a.Meta, types.DecisionCommit, &types.DecisionCert{TxID: idA, Decision: types.DecisionCommit}, types.TraceContext{})
	b := &types.ST1Request{
		ReqID: 2, ClientID: 9,
		Meta: &types.TxMeta{
			Timestamp: types.Timestamp{Time: 20, ClientID: 9},
			ReadSet:   []types.ReadEntry{{Key: "k", Version: types.Timestamp{}}},
			WriteSet:  []types.WriteEntry{{Key: "j", Value: []byte("w")}},
			Shards:    []int32{0},
		},
	}
	r.Deliver(client, b)
	rep := awaitReply(t, st1, b.Meta.ID())
	if rep.Vote != types.VoteAbort {
		t.Fatalf("stale-read prepare voted %v, want abort", rep.Vote)
	}
	sc := r.adm.peekScore(9)
	if sc == nil || sc.aborts.Load() == 0 {
		t.Fatal("abort vote did not feed the owner's reputation score")
	}
}

// TestAdmissionFullQueueStillAppliesWriteback: a writeback arriving at a
// dispatch queue already full to its cap is still admitted and applied.
// A writeback carries no request id, so a shed one would get no
// Overloaded reply, the client would never resend it, and the commit
// would be lost on this replica.
func TestAdmissionFullQueueStillAppliesWriteback(t *testing.T) {
	r, net := newQueuedReplica(t, 4)
	defer net.Close()
	defer r.Close()
	spammer := transport.ClientAddr(7)
	for i := 0; i < 4; i++ {
		if !r.adm.admit(spammer, &types.ST1Request{ReqID: uint64(i + 1), ClientID: 7}) {
			t.Fatalf("filler %d shed below the cap", i)
		}
	}
	if r.adm.admit(spammer, &types.ST1Request{ReqID: 5, ClientID: 7}) {
		t.Fatal("queue not full: an ST1 beyond the cap was admitted")
	}

	wb := fastCommitWriteback(r, "k", 10)
	r.Deliver(transport.ClientAddr(9), wb)
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats.Writebacks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("writeback never applied at a full queue (shed=%d)", r.Stats.Shed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.Stats.Shed.Load(); got != 1 {
		t.Fatalf("Shed = %d, want 1 (only the over-cap ST1)", got)
	}
	if rec, ok := r.store.FinalizedOutcome(wb.TxID); !ok || rec.Status != store.StatusCommitted {
		t.Fatalf("store has no committed outcome after the writeback (%+v, %v)", rec, ok)
	}
	for i := 0; i < 4; i++ {
		r.adm.release()
	}
}

// TestWritebackBadCertChargesSender: writebacks are exempt from the queue
// cap, so a certificate that fails verification is charged to its sender
// until the sender is a suspect, and a suspect's writebacks are then held
// to its token bucket.
func TestWritebackBadCertChargesSender(t *testing.T) {
	r, net := newQueuedReplica(t, 4)
	defer net.Close()
	defer r.Close()
	sender := transport.ClientAddr(9)
	sc := r.adm.score(9)

	good := fastCommitWriteback(r, "k", 10)
	forged := *good
	cert := *good.Cert
	cert.Shards = append([]types.ShardCert(nil), good.Cert.Shards...)
	cert.Shards[0].ST1Rs = cert.Shards[0].ST1Rs[:1] // one vote is no quorum
	forged.Cert = &cert

	r.onWriteback(sender, &forged)
	if got := sc.badCerts.Load(); got != 1 {
		t.Fatalf("badCerts = %d after a forged certificate, want 1", got)
	}
	r.onWriteback(sender, &forged)
	if !sc.suspect() {
		t.Fatalf("two forged certificates did not make the sender a suspect (bad=%d)", sc.bad())
	}
	if r.Stats.Writebacks.Load() != 0 {
		t.Fatal("a forged certificate was applied")
	}

	admitted := 0
	for i := 0; i < 4*suspectBurst; i++ {
		if r.adm.admit(sender, &forged) {
			admitted++
		}
	}
	if admitted >= 4*suspectBurst {
		t.Fatal("a suspect's writebacks were never rate-limited")
	}
	if got := r.Stats.ShedReputation.Load(); got == 0 {
		t.Fatal("suspect writeback refusals not counted as reputation sheds")
	}
	if d := r.adm.depth(); d != 0 {
		t.Fatalf("exempt writebacks took %d dispatch slots", d)
	}
}
