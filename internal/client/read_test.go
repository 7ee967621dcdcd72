package client

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cryptoutil"
	"repro/internal/transport"
	"repro/internal/types"
)

// readHarness wires a real Client to scripted replica handlers over a
// Local transport, so tests can inject byte-exact (and validly MACed)
// replies that a cluster of correct replicas would never produce.
type readHarness struct {
	net      *transport.Local
	reg      *cryptoutil.Registry
	signerOf func(shard, replica int32) int32
	cli      *Client
	n        int32 // replicas per shard, 5f+1
	// macKeys is each registry node's replica-side MAC key cache.
	macKeys []*cryptoutil.MACKeyCache
	// onCert answers certificate fetches; nil answers each with an empty
	// reply, as a replica that holds no certificate for the id does. Set
	// it before the first read.
	onCert func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest)
}

const harnessN = 6 // f=1 => n=5f+1

// newReadHarness registers harnessN scripted shard-0 replicas (f=1) and
// builds a client over them. onRead runs on each replica's dispatch
// goroutine.
func newReadHarness(t *testing.T, clk clock.Clock, readWait int,
	onRead func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest)) *readHarness {
	return newSchemeReadHarness(t, cryptoutil.SchemeEd25519, clk, readWait, 25*time.Millisecond, onRead)
}

// newSchemeReadHarness is newReadHarness under the given proof scheme and
// client phase timeout.
func newSchemeReadHarness(t *testing.T, scheme cryptoutil.Scheme, clk clock.Clock, readWait int, phase time.Duration,
	onRead func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest)) *readHarness {
	return newFaultReadHarness(t, 1, scheme, clk, readWait, phase, onRead)
}

// newFaultReadHarness is newSchemeReadHarness for a shard of 5f+1
// replicas that tolerates f faults.
func newFaultReadHarness(t *testing.T, f int, scheme cryptoutil.Scheme, clk clock.Clock, readWait int, phase time.Duration,
	onRead func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest)) *readHarness {
	t.Helper()
	n := int32(5*f + 1)
	h := &readHarness{
		net: transport.NewLocal(),
		n:   n,
		// Two shards' worth of keys: shard 1's replicas have real,
		// verifiable identities even though requests only target shard 0.
		reg:      cryptoutil.NewRegistry(scheme, 2*int(n), 1),
		signerOf: func(shard, replica int32) int32 { return shard*n + replica },
	}
	for id := int32(0); id < 2*n; id++ {
		h.macKeys = append(h.macKeys, cryptoutil.NewMACKeyCache(h.reg, id, 16))
	}
	t.Cleanup(h.net.Close)
	for i := int32(0); i < n; i++ {
		i := i
		h.net.Register(transport.ReplicaAddr(0, i), transport.HandlerFunc(func(from transport.Addr, msg any) {
			switch req := msg.(type) {
			case *types.ReadRequest:
				onRead(h, i, from, req)
			case *types.CertRequest:
				if h.onCert != nil {
					h.onCert(h, i, from, req)
				} else {
					h.certReply(i, from, req, nil, nil)
				}
			}
		}))
	}
	h.cli = New(Config{
		ID: 1, F: f, NumShards: 2,
		ShardOf:      func(string) int32 { return 0 },
		Clock:        clk,
		Registry:     h.reg,
		SignerOf:     h.signerOf,
		Net:          h.net,
		ReadWait:     readWait,
		PhaseTimeout: phase,
	})
	return h
}

// certReply answers a certificate fetch as shard-0 replica, MACed as that
// replica; nil meta and cert make the empty reply.
func (h *readHarness) certReply(replica int32, from transport.Addr, req *types.CertRequest, meta *types.TxMeta, cert *types.DecisionCert) {
	h.certReplyAs(replica, replica, from, req, meta, cert)
}

// certReplyAs sends, from shard-0 replica sender, a certificate reply
// that names replica and carries the best MAC sender can make: one under
// its own key. When sender is not replica the client must refuse it.
func (h *readHarness) certReplyAs(sender, replica int32, from transport.Addr, req *types.CertRequest, meta *types.TxMeta, cert *types.DecisionCert) {
	cr := &types.CertReply{ReqID: req.ReqID, ShardID: 0, ReplicaID: replica, Meta: meta, Cert: cert}
	if kc := h.macKeys[h.signerOf(0, sender)]; kc != nil {
		k, ok := kc.Key(req.ClientKey)
		if !ok {
			panic("harness: client sent no valid exchange key")
		}
		cr.MAC = cryptoutil.SumCertMAC(&k, cr)
	}
	h.net.Send(transport.ReplicaAddr(0, sender), from, cr)
}

// mac attaches the MAC that (shard, replica) computes for the client that
// sent req; under the NoProofs scheme it leaves the MAC zero.
func (h *readHarness) mac(shard, replica int32, req *types.ReadRequest, rr *types.ReadReply) {
	kc := h.macKeys[h.signerOf(shard, replica)]
	if kc == nil {
		return
	}
	k, ok := kc.Key(req.ClientKey)
	if !ok {
		panic("harness: client sent no valid exchange key")
	}
	rr.MAC = cryptoutil.SumReadMAC(&k, rr)
}

// TestReadRejectsCrossShardReply is the regression test for cross-shard
// read confusion: a reply correctly MACed by a replica of a *different*
// shard must not count toward the read quorum, even though its MAC
// verifies under the key of SignerOf(the reply's ShardID, ReplicaID).
// Two disguises: the other shard's own ShardID (before the fix every such
// reply counted as a genesis vote), and this shard's ShardID with the
// index n+i, since SignerOf(0, n+i) = SignerOf(1, i). Before the index
// was checked, one Byzantine shard-0 replica plus one such reply made f+1
// matching replies for a made-up committed version, chosen without a
// certificate check.
func TestReadRejectsCrossShardReply(t *testing.T) {
	evil := []byte("cross-shard-forgery")
	forged := &types.CommittedRead{Value: evil, WriterID: types.TxID{0xBB}, Timestamp: types.Timestamp{Time: 1999, ClientID: 9}}
	// crossShard sends rr from shard-1 replica i, labelled (shard, index)
	// and MACed under shard-1 replica i's key.
	crossShard := func(h *readHarness, i, shard, index int32, from transport.Addr, req *types.ReadRequest, rr *types.ReadReply) {
		rr.ReqID, rr.Key, rr.ShardID, rr.ReplicaID = req.ReqID, req.Key, shard, index
		h.mac(1, i, req, rr)
		h.net.Send(transport.ReplicaAddr(1, i), from, rr)
	}
	for _, tc := range []struct {
		name   string
		onRead func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest)
		want   string // "" = every reply is rejected and the read times out
	}{
		{"other-shard-id", func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			crossShard(h, replica, 1, replica, from, req, &types.ReadReply{Committed: &types.CommittedRead{Value: evil}})
		}, ""},
		{"index-past-shard", func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			crossShard(h, replica, 0, harnessN+replica, from, req, &types.ReadReply{Committed: &types.CommittedRead{Value: evil}})
		}, ""},
		// The first replica asked is Byzantine and adds a cross-shard copy
		// of its forged version; two honest replicas report the genesis
		// value a little later.
		{"index-past-shard-committed", func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			switch h.rank(req, replica) {
			case 0:
				h.reply(replica, from, req, &types.ReadReply{Committed: forged})
				crossShard(h, replica, 0, harnessN+replica, from, req, &types.ReadReply{Committed: forged})
			case 1, 2:
				time.Sleep(5 * time.Millisecond)
				h.reply(replica, from, req, &types.ReadReply{Committed: &types.CommittedRead{Value: []byte("base")}})
			}
		}, "base"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newReadHarness(t, clock.NewManual(2000), 0 /* default ReadWait f+1 */, tc.onRead)
			val, err := h.cli.Begin().Read("k")
			if tc.want == "" {
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("read ended with (%q, %v), want ErrTimeout once all replies are rejected", val, err)
				}
			} else if err != nil || string(val) != tc.want {
				t.Fatalf("read = (%q, %v), want %q", val, err, tc.want)
			}
		})
	}
}

// TestRepeatReadReturnsCachedValue is the repeatable-reads regression
// test: two Read(key) calls in one transaction must return identical
// bytes even when a version newer than the recorded one commits between
// them. Before the fix the second read re-contacted replicas and returned
// the newer value, while ST1 still validated the version recorded by the
// first read.
func TestRepeatReadReturnsCachedValue(t *testing.T) {
	v0 := []byte("original")
	v1 := []byte("advanced")
	served := make([]int, harnessN)                  // per-replica request count; each touched only by its own dispatch goroutine
	h := newReadHarness(t, clock.NewManual(2000), 1, /* Fig. 5b "one read": no cross-validation */
		func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			rr := &types.ReadReply{
				ReqID: req.ReqID, Key: req.Key,
				ShardID: 0, ReplicaID: replica,
			}
			if served[replica] == 0 {
				// First contact: the key is still at its genesis value.
				rr.Committed = &types.CommittedRead{Value: v0}
			} else {
				// A committer advanced the key to version 1500 — still below
				// the transaction's timestamp 2000, so a re-read would
				// legitimately pick it.
				rr.Committed = committedRead(&types.TxMeta{
					Timestamp: types.Timestamp{Time: 1500, ClientID: 9},
					WriteSet:  []types.WriteEntry{{Key: req.Key, Value: v1}},
				})
			}
			served[replica]++
			h.mac(0, replica, req, rr)
			h.net.Send(transport.ReplicaAddr(0, replica), from, rr)
		})

	tx := h.cli.Begin()
	first, err := tx.Read("k")
	if err != nil {
		t.Fatalf("first read: %v", err)
	}
	if !bytes.Equal(first, v0) {
		t.Fatalf("first read returned %q, want %q", first, v0)
	}
	second, err := tx.Read("k")
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat read diverged: first %q, second %q", first, second)
	}
	if len(tx.reads) != 1 || tx.reads[0].Version.Time != 0 {
		t.Fatalf("read set changed by repeat read: %+v", tx.reads)
	}
}

// rank is replica's position in req's fan-out: the client starts at a
// rotating offset, so rank 0 is the first replica it asked.
func (h *readHarness) rank(req *types.ReadRequest, replica int32) int {
	n := int(h.n)
	off := int(req.ReqID) % n
	return (int(replica) - off + n) % n
}

// reply sends rr to the client after MACing it as shard-0 replica.
func (h *readHarness) reply(replica int32, from transport.Addr, req *types.ReadRequest, rr *types.ReadReply) {
	rr.ReqID, rr.Key, rr.ShardID, rr.ReplicaID = req.ReqID, req.Key, 0, replica
	h.mac(0, replica, req, rr)
	h.net.Send(transport.ReplicaAddr(0, replica), from, rr)
}

// writerMeta is a transaction at ts that wrote value to key "k" on shard 0.
func writerMeta(ts uint64, value string) *types.TxMeta {
	return &types.TxMeta{
		Timestamp: types.Timestamp{Time: ts, ClientID: 9},
		WriteSet:  []types.WriteEntry{{Key: "k", Value: []byte(value)}},
		Shards:    []int32{0},
	}
}

// commitCert returns meta's fast-path commit certificate: all of shard
// 0's replicas vote commit, each signing with its real key. With forge
// set the signatures are garbage, so verification runs and fails.
func (h *readHarness) commitCert(meta *types.TxMeta, forge bool) *types.DecisionCert {
	return h.fastCert(meta, types.VoteCommit, forge)
}

// fastCert returns meta's fast-path certificate in which all of shard 0's
// replicas cast vote: a C-CERT for VoteCommit, an A-CERT for VoteAbort.
func (h *readHarness) fastCert(meta *types.TxMeta, vote types.Vote, forge bool) *types.DecisionCert {
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: vote}
	for j := int32(0); j < h.n; j++ {
		v := types.ST1Reply{TxID: id, ShardID: 0, ReplicaID: j, Vote: vote}
		sid := h.signerOf(0, j)
		v.Sig = types.Signature{SignerID: sid, Direct: h.reg.Signer(sid).Sign(v.Payload())}
		if forge {
			v.Sig.Direct = [64]byte(bytes.Repeat([]byte{byte(j + 1)}, 64))
		}
		sc.ST1Rs = append(sc.ST1Rs, v)
	}
	dec := types.DecisionCommit
	if vote == types.VoteAbort {
		dec = types.DecisionAbort
	}
	return &types.DecisionCert{TxID: id, Decision: dec, Shards: []types.ShardCert{sc}}
}

// committedRead is the committed branch an honest replica serves for meta.
func committedRead(meta *types.TxMeta) *types.CommittedRead {
	return &types.CommittedRead{Value: meta.WriteSet[0].Value, WriterID: meta.ID(), Timestamp: meta.Timestamp}
}

// countChecks makes the client's signature verifier count its checks.
func (h *readHarness) countChecks() *atomic.Uint64 {
	n := new(atomic.Uint64)
	h.cli.sv.CountChecks(n)
	return n
}

// TestReadRejectsBadMAC: replies whose MAC was tampered with, or made
// under another replica's key, never count; with no valid reply the read
// times out instead of returning the forged value.
func TestReadRejectsBadMAC(t *testing.T) {
	evil := []byte("forged")
	for _, tc := range []struct {
		name  string
		forge func(h *readHarness, replica int32, req *types.ReadRequest, rr *types.ReadReply)
	}{
		{"tampered", func(h *readHarness, replica int32, req *types.ReadRequest, rr *types.ReadReply) {
			h.mac(0, replica, req, rr)
			rr.MAC[7] ^= 1
		}},
		{"other-replica-key", func(h *readHarness, replica int32, req *types.ReadRequest, rr *types.ReadReply) {
			h.mac(0, (replica+1)%harnessN, req, rr)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newReadHarness(t, clock.NewManual(2000), 0,
				func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
					rr := &types.ReadReply{ReqID: req.ReqID, Key: req.Key, ReplicaID: replica,
						Committed: &types.CommittedRead{Value: evil}}
					tc.forge(h, replica, req, rr)
					h.net.Send(transport.ReplicaAddr(0, replica), from, rr)
				})
			val, err := h.cli.Begin().Read("k")
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("read ended with (%q, %v), want ErrTimeout", val, err)
			}
		})
	}
}

// TestReadSchemeNone: under the NoProofs scheme the client sends no
// exchange key and accepts replies without a MAC.
func TestReadSchemeNone(t *testing.T) {
	h := newSchemeReadHarness(t, cryptoutil.SchemeNone, clock.NewManual(2000), 0, 25*time.Millisecond,
		func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			if req.ClientKey != ([32]byte{}) {
				panic("NoProofs client sent an exchange key")
			}
			h.reply(replica, from, req, &types.ReadReply{Committed: &types.CommittedRead{Value: []byte("v")}})
		})
	val, err := h.cli.Begin().Read("k")
	if err != nil || string(val) != "v" {
		t.Fatalf("read = (%q, %v), want v", val, err)
	}
}

// TestReadCorroboratedCommittedSkipsCertificate: f+1 replies reporting
// the same committed (version, writer, value) make it a candidate without
// a single signature check.
func TestReadCorroboratedCommittedSkipsCertificate(t *testing.T) {
	meta := writerMeta(1500, "v1")
	h := newReadHarness(t, clock.NewManual(2000), 0,
		func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			h.reply(replica, from, req, &types.ReadReply{Committed: committedRead(meta)})
		})
	checks := h.countChecks()
	tx := h.cli.Begin()
	val, err := tx.Read("k")
	if err != nil || string(val) != "v1" {
		t.Fatalf("read = (%q, %v), want v1", val, err)
	}
	if n := checks.Load(); n != 0 {
		t.Fatalf("corroborated committed read ran %d signature checks, want 0", n)
	}
	if n := h.cli.Stats.CertFetches.Load(); n != 0 {
		t.Fatalf("corroborated committed read fetched %d certificates, want 0", n)
	}
	if tx.reads[0].Version != meta.Timestamp {
		t.Fatalf("read set records %+v, want %+v", tx.reads[0].Version, meta.Timestamp)
	}
}

// The tests that count certificate fetches give the read a phase timeout
// far above its duration: a read that timed out would retry, and fetch
// again.

// loneReporter is a read harness for a shard of 5f+1 replicas in which
// the replica of rank 0 in the fan-out alone reports lone, a newer
// committed version, while the replicas of ranks 1 to 2f report "base",
// an older version they corroborate. The reporter answers certificate
// fetches with serve, and stays silent while serve is nil; every other
// replica answers with other, or empty while other is nil. Set both
// before the read.
type loneReporter struct {
	*readHarness
	serve func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest)
	other func(h *readHarness, replica int32, rank int, from transport.Addr, req *types.CertRequest)

	mu    sync.Mutex
	ranks map[int32]int // each replica's rank in the read's fan-out
}

func newLoneReporter(t *testing.T, f int, phase time.Duration, lone *types.CommittedRead) *loneReporter {
	lr := &loneReporter{ranks: make(map[int32]int)}
	lr.readHarness = newFaultReadHarness(t, f, cryptoutil.SchemeEd25519, clock.NewManual(2000), 0, phase,
		func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			rank := h.rank(req, replica)
			lr.mu.Lock()
			lr.ranks[replica] = rank
			lr.mu.Unlock()
			switch {
			case rank == 0:
				h.reply(replica, from, req, &types.ReadReply{Committed: lone})
			case rank <= 2*f:
				time.Sleep(2 * time.Millisecond)
				h.reply(replica, from, req, &types.ReadReply{Committed: &types.CommittedRead{Value: []byte("base")}})
			}
		})
	lr.onCert = func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest) {
		lr.mu.Lock()
		rank, asked := lr.ranks[replica]
		lr.mu.Unlock()
		switch {
		case !asked:
		case rank > 0 && lr.other != nil:
			lr.other(h, replica, rank, from, req)
		case rank > 0:
			h.certReply(replica, from, req, nil, nil)
		case lr.serve != nil:
			lr.serve(h, replica, from, req)
		}
	}
	return lr
}

// at returns the replica of the given rank in the read's fan-out.
func (lr *loneReporter) at(rank int) int32 {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	for replica, r := range lr.ranks {
		if r == rank {
			return replica
		}
	}
	panic("harness: no replica of that rank was asked")
}

// serves makes the reporter answer fetches with (meta, cert).
func (lr *loneReporter) serves(meta *types.TxMeta, cert *types.DecisionCert) {
	lr.serve = func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest) {
		h.certReply(replica, from, req, meta, cert)
	}
}

// TestReadRejectsLoneBadCertificate: one reply offering a newer committed
// version whose certificate, fetched from that replica, does not verify
// is dropped; the read settles on the version the other replies agree on.
func TestReadRejectsLoneBadCertificate(t *testing.T) {
	meta := writerMeta(1500, "forged")
	lr := newLoneReporter(t, 1, time.Second, committedRead(meta))
	lr.serves(meta, lr.commitCert(meta, true))
	checks := lr.countChecks()
	val, err := lr.cli.Begin().Read("k")
	if err != nil || string(val) != "base" {
		t.Fatalf("read = (%q, %v), want base", val, err)
	}
	if checks.Load() == 0 {
		t.Fatal("the lone committed version was dropped without checking its certificate")
	}
	if n := lr.cli.Stats.CertFetches.Load(); n != 1 {
		t.Fatalf("%d certificate fetches, want 1", n)
	}
}

// TestReadRefusesMismatchedCertReply: a fetched certificate that verifies
// but does not prove the version the lone reply named is refused, and the
// read settles on the corroborated version. Each case changes one thing
// the client checks: the metadata's timestamp against the MACed version,
// the metadata's hash against the MACed writer id, the certificate's
// transaction, and its decision (a valid abort certificate for the named
// writer).
func TestReadRefusesMismatchedCertReply(t *testing.T) {
	meta := writerMeta(1500, "v1")
	for _, tc := range []struct {
		name string
		// lone is the reported version; serve builds the fetch reply.
		lone  *types.CommittedRead
		serve func(h *readHarness) (*types.TxMeta, *types.DecisionCert)
	}{
		{"meta-timestamp", &types.CommittedRead{Value: []byte("v1"), WriterID: meta.ID(), Timestamp: types.Timestamp{Time: 1600, ClientID: 9}},
			func(h *readHarness) (*types.TxMeta, *types.DecisionCert) { return meta, h.commitCert(meta, false) }},
		{"other-writer-id", &types.CommittedRead{Value: []byte("v1"), WriterID: types.TxID{0xAB}, Timestamp: meta.Timestamp},
			func(h *readHarness) (*types.TxMeta, *types.DecisionCert) { return meta, h.commitCert(meta, false) }},
		{"other-tx-cert", committedRead(meta),
			func(h *readHarness) (*types.TxMeta, *types.DecisionCert) {
				return meta, h.commitCert(writerMeta(1400, "v0"), false)
			}},
		{"abort-cert", committedRead(meta),
			func(h *readHarness) (*types.TxMeta, *types.DecisionCert) {
				cert := h.fastCert(meta, types.VoteAbort, false)
				if err := h.cli.qv.VerifyDecisionCert(cert, meta); err != nil {
					panic("harness: abort certificate does not verify: " + err.Error())
				}
				return meta, cert
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lr := newLoneReporter(t, 1, time.Second, tc.lone)
			lr.serves(tc.serve(lr.readHarness))
			tx := lr.cli.Begin()
			val, err := tx.Read("k")
			if err != nil || string(val) != "base" {
				t.Fatalf("read = (%q, %v), want base", val, err)
			}
			if !tx.reads[0].Version.IsZero() {
				t.Fatalf("read set records %+v, want the genesis version", tx.reads[0].Version)
			}
			if n := lr.cli.Stats.CertFetches.Load(); n != 1 {
				t.Fatalf("%d certificate fetches, want 1", n)
			}
		})
	}
}

// TestReadSilentReporterCostsOneRoundTrip: a lone reporter of a newer
// committed version that then never answers the certificate fetch does
// not hold the read to its deadline. The read settles on the
// corroborated version about one fetch round trip after the other
// replicas answer it, far inside the phase timeout. At f=2 one more
// faulty replica, a non-reporter, stays silent on the fetch too.
func TestReadSilentReporterCostsOneRoundTrip(t *testing.T) {
	const phase = 2 * time.Second
	meta := writerMeta(1500, "claimed")
	for _, f := range []int{1, 2} {
		t.Run(fmt.Sprintf("f=%d", f), func(t *testing.T) {
			start := time.Now()
			lr := newLoneReporter(t, f, phase, committedRead(meta))
			lr.other = func(h *readHarness, replica int32, rank int, from transport.Addr, req *types.CertRequest) {
				if rank > 1 || f == 1 {
					h.certReply(replica, from, req, nil, nil)
				}
			}
			val, err := lr.cli.Begin().Read("k")
			took := time.Since(start)
			if err != nil || string(val) != "base" {
				t.Fatalf("read = (%q, %v), want base", val, err)
			}
			if took > phase/10 {
				t.Fatalf("read took %v with silent faulty replicas; the phase timeout is %v", took, phase)
			}
			if n := lr.cli.Stats.CertFetches.Load(); n != 1 {
				t.Fatalf("%d certificate fetches, want 1", n)
			}
		})
	}
}

// TestReadFetchIgnoresForeignReplicaIDs: fetch answers that name a
// replica index outside the shard, negative or too large, as a
// certificate reply or as an Overloaded, are ignored without harm, and
// the reporter's certificate is still accepted.
func TestReadFetchIgnoresForeignReplicaIDs(t *testing.T) {
	meta := writerMeta(1500, "v1")
	lr := newLoneReporter(t, 1, time.Second, committedRead(meta))
	cert := lr.commitCert(meta, false)
	lr.serve = func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest) {
		time.Sleep(5 * time.Millisecond) // after the foreign answers
		h.certReply(replica, from, req, meta, cert)
	}
	lr.other = func(h *readHarness, replica int32, rank int, from transport.Addr, req *types.CertRequest) {
		if rank == 1 {
			self := transport.ReplicaAddr(0, replica)
			for _, id := range []int32{-1, h.n, 1 << 20} {
				h.net.Send(self, from, &types.CertReply{ReqID: req.ReqID, ShardID: 0, ReplicaID: id})
				h.net.Send(self, from, &types.Overloaded{ReqID: req.ReqID, ShardID: 0, ReplicaID: id})
			}
		} else {
			time.Sleep(30 * time.Millisecond) // keeps the grace window shut until the reporter answers
		}
		h.certReply(replica, from, req, nil, nil)
	}
	tx := lr.cli.Begin()
	val, err := tx.Read("k")
	if err != nil || string(val) != "v1" {
		t.Fatalf("read = (%q, %v), want v1", val, err)
	}
	if tx.reads[0].Version != meta.Timestamp {
		t.Fatalf("read set records %+v, want %+v", tx.reads[0].Version, meta.Timestamp)
	}
}

// TestReadFetchRefusesSpoofedAnswers: one replica answering the fetch
// empty in other replicas' names, with the best MAC it can make (under
// its own key), neither counts those replicas as answered nor opens the
// grace window early. Spoofing every replica asked would otherwise end
// the fetch at once; spoofing the non-reporters would open the grace
// window at its floor. Either way the honest reporter's certificate,
// served after the spoofs, is still accepted.
func TestReadFetchRefusesSpoofedAnswers(t *testing.T) {
	meta := writerMeta(1500, "v1")
	for _, tc := range []struct {
		name    string
		spoofed []int // the ranks the spoofer answers for
	}{
		{"every-asked", []int{0, 2}},
		{"non-reporters", []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lr := newLoneReporter(t, 1, time.Second, committedRead(meta))
			cert := lr.commitCert(meta, false)
			lr.serve = func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest) {
				time.Sleep(10 * time.Millisecond)
				h.certReply(replica, from, req, meta, cert)
			}
			lr.other = func(h *readHarness, replica int32, rank int, from transport.Addr, req *types.CertRequest) {
				if rank == 1 {
					for _, r := range tc.spoofed {
						h.certReplyAs(replica, lr.at(r), from, req, nil, nil)
					}
				} else {
					time.Sleep(30 * time.Millisecond) // an honest, slow replica
				}
				h.certReply(replica, from, req, nil, nil)
			}
			val, err := lr.cli.Begin().Read("k")
			if err != nil || string(val) != "v1" {
				t.Fatalf("read = (%q, %v), want v1", val, err)
			}
		})
	}
}

// TestReadPicksLoneNewerCertifiedVersion: a committed version only one
// replica reports, newer than the version the others corroborate, is
// still chosen when the certificate that replica serves verifies — the
// choice a client that checks every certificate makes.
func TestReadPicksLoneNewerCertifiedVersion(t *testing.T) {
	older, newer := writerMeta(1200, "v0"), writerMeta(1500, "v1")
	var (
		mu       sync.Mutex
		reporter = int32(-1)
	)
	h := newSchemeReadHarness(t, cryptoutil.SchemeEd25519, clock.NewManual(2000), 3 /* 2f+1 */, time.Second,
		func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			switch h.rank(req, replica) {
			case 0, 1:
				h.reply(replica, from, req, &types.ReadReply{Committed: committedRead(older)})
			case 2:
				time.Sleep(5 * time.Millisecond)
				mu.Lock()
				reporter = replica
				mu.Unlock()
				h.reply(replica, from, req, &types.ReadReply{Committed: committedRead(newer)})
			}
		})
	newerCert := h.commitCert(newer, false)
	h.onCert = func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest) {
		mu.Lock()
		isReporter := replica == reporter
		mu.Unlock()
		if isReporter && req.TxID == newer.ID() {
			h.certReply(replica, from, req, newer, newerCert)
			return
		}
		h.certReply(replica, from, req, nil, nil)
	}
	tx := h.cli.Begin()
	val, err := tx.Read("k")
	if err != nil || string(val) != "v1" {
		t.Fatalf("read = (%q, %v), want v1", val, err)
	}
	if tx.reads[0].Version != newer.Timestamp {
		t.Fatalf("read set records %+v, want %+v", tx.reads[0].Version, newer.Timestamp)
	}
	if n := h.cli.Stats.CertFetches.Load(); n != 1 {
		t.Fatalf("%d certificate fetches, want 1", n)
	}
}

// TestReadWriterIDMismatchDoesNotCorroborate: replies that agree on a
// committed version's timestamp and value but name different writers do
// not corroborate each other; with forged certificates nothing is valid.
func TestReadWriterIDMismatchDoesNotCorroborate(t *testing.T) {
	meta := writerMeta(1500, "v1")
	h := newReadHarness(t, clock.NewManual(2000), 0,
		func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
			cr := committedRead(meta)
			cr.WriterID[0] ^= byte(replica + 1) // a different writer per replica
			h.reply(replica, from, req, &types.ReadReply{Committed: cr})
		})
	cert := h.commitCert(meta, true)
	h.onCert = func(h *readHarness, replica int32, from transport.Addr, req *types.CertRequest) {
		h.certReply(replica, from, req, meta, cert)
	}
	val, err := h.cli.Begin().Read("k")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("read ended with (%q, %v), want ErrTimeout", val, err)
	}
}

// TestReadPreparedAgreesOnValueAndWriter is the regression test for a
// Byzantine replica choosing a prepared read's value and dependency: the
// client used to count prepared versions by timestamp alone and build the
// candidate from whichever reply completed the count. The honest reply
// arrives first and the Byzantine one second.
func TestReadPreparedAgreesOnValueAndWriter(t *testing.T) {
	honest := writerMeta(1500, "honest")
	// byzMeta names the honest version but is not the honest writer.
	byzMeta := writerMeta(1500, "honest")
	byzMeta.Deps = []types.Dependency{{TxID: types.TxID{0xEE}, Version: types.Timestamp{Time: 1}}}
	evil := writerMeta(1500, "evil")
	for _, tc := range []struct {
		name string
		byz  *types.PreparedRead
		// want is the value read; dep whether the honest writer becomes
		// a dependency.
		want string
		dep  bool
	}{
		// Own value and writer: no agreement, so the read falls back to
		// the corroborated committed version.
		{"own-value", &types.PreparedRead{Value: []byte("evil"), WriterID: evil.ID(), WriterMeta: evil}, "base", false},
		// Honest value and writer id, own metadata: the version is
		// corroborated, but the dependency is the honest writer's.
		{"own-meta", &types.PreparedRead{Value: []byte("honest"), WriterID: honest.ID(), WriterMeta: byzMeta}, "honest", true},
		// No metadata at all: malformed, ignored (and must not crash the
		// client while it checks the MAC).
		{"no-meta", &types.PreparedRead{Value: []byte("honest"), WriterID: honest.ID()}, "base", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newReadHarness(t, clock.NewManual(2000), 0,
				func(h *readHarness, replica int32, from transport.Addr, req *types.ReadRequest) {
					base := &types.CommittedRead{Value: []byte("base")}
					switch h.rank(req, replica) {
					case 0:
						h.reply(replica, from, req, &types.ReadReply{Committed: base,
							Prepared: &types.PreparedRead{Value: []byte("honest"), WriterID: honest.ID(), WriterMeta: honest}})
					case 1:
						time.Sleep(5 * time.Millisecond)
						h.reply(replica, from, req, &types.ReadReply{Committed: base, Prepared: tc.byz})
					}
				})
			tx := h.cli.Begin()
			val, err := tx.Read("k")
			if err != nil || string(val) != tc.want {
				t.Fatalf("read = (%q, %v), want %q", val, err, tc.want)
			}
			if tc.dep {
				id := honest.ID()
				if len(tx.deps) != 1 || tx.depMetas[id] != honest || tx.deps[id].Version != honest.Timestamp {
					t.Fatalf("dependencies %+v, want only the honest writer", tx.deps)
				}
			} else if len(tx.deps) != 0 {
				t.Fatalf("dependencies %+v, want none", tx.deps)
			}
		})
	}
}
