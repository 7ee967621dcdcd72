package quorum

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
	"repro/internal/types"
)

func TestQuorumArithmetic(t *testing.T) {
	for f := 1; f <= 4; f++ {
		c := Config{F: f}
		if c.N() != 5*f+1 {
			t.Fatalf("f=%d N=%d", f, c.N())
		}
		if c.CommitQuorum() != 3*f+1 || c.AbortQuorum() != f+1 {
			t.Fatalf("f=%d CQ/AQ wrong", f)
		}
		if c.FastCommit() != 5*f+1 || c.FastAbort() != 3*f+1 {
			t.Fatalf("f=%d fast thresholds wrong", f)
		}
		if c.LogQuorum() != c.N()-f {
			t.Fatalf("f=%d log quorum != n-f", f)
		}
		// §4.2 case 1: two commit quorums overlap in at least f+1
		// replicas, i.e. at least one correct replica, which enforces
		// isolation between conflicting transactions.
		if 2*c.CommitQuorum()-c.N() < f+1 {
			t.Fatalf("f=%d CQ overlap lacks a guaranteed correct replica", f)
		}
		// §5: any 4f+1 ELECT-FB messages contain a majority of any
		// decision logged by n-f replicas: (n-f) - f ballots from correct
		// loggers must exceed half of 4f+1.
		if 2*(c.LogQuorum()-f) <= c.ElectQuorum() {
			t.Fatalf("f=%d logged decision not majority in election", f)
		}
	}
}

func TestWhy5fPlus1(t *testing.T) {
	// §4.5's impossibility: with n ≤ 5f, a fast path (CQ visible after f
	// async + f equivocation still ≥ 3f+1 overlap-safe quorum) and
	// Byzantine independence (both CQ and AQ reachable with f silent
	// replicas while neither dips below f+1) cannot coexist. Check that
	// the arithmetic that holds at n = 5f+1 fails at n = 5f.
	f := 1
	n := 5 * f // hypothetical smaller factor
	fastCommit := n
	// After asynchrony (f missing) and equivocation (f flipped), a later
	// client may observe fastCommit - 2f matching votes; safety demands
	// that still be ≥ the commit quorum 3f+1.
	if fastCommit-2*f >= 3*f+1 {
		t.Fatal("n=5f should NOT support the fast path, but arithmetic says it does")
	}
	// And at n = 5f+1 it does hold.
	n = 5*f + 1
	if n-2*f < 3*f+1 {
		t.Fatal("n=5f+1 must support the fast path")
	}
}

func TestClassify(t *testing.T) {
	c := Config{F: 1} // n=6, CQ=4, AQ=2, fastC=6, fastA=4
	cases := []struct {
		commits, aborts int
		conflict        bool
		want            ShardOutcome
	}{
		{0, 0, false, OutcomePending},
		{3, 0, false, OutcomePending},
		{4, 0, false, OutcomeCommitSlow},
		{5, 1, false, OutcomeCommitSlow},
		{6, 0, false, OutcomeCommitFast},
		{0, 2, false, OutcomeAbortSlow},
		{0, 4, false, OutcomeAbortFast},
		{2, 4, false, OutcomeAbortFast},
		{0, 1, true, OutcomeAbortFast},
		{4, 2, false, OutcomeCommitSlow}, // both quorums: classified commit, equivocation material
	}
	for _, tc := range cases {
		if got := c.Classify(tc.commits, tc.aborts, tc.conflict); got != tc.want {
			t.Errorf("Classify(%d,%d,%v) = %v, want %v", tc.commits, tc.aborts, tc.conflict, got, tc.want)
		}
	}
}

func TestFastStillPossible(t *testing.T) {
	c := Config{F: 1}
	if !c.FastStillPossible(4, 0) { // 2 missing could complete 6 commits
		t.Fatal("4C/0A should still allow fast commit")
	}
	if c.FastStillPossible(4, 1) { // 1 missing: max 5 commits < 6; max 2 aborts < 4
		t.Fatal("4C/1A cannot reach any fast outcome")
	}
	if !c.FastStillPossible(0, 3) {
		t.Fatal("0C/3A should still allow fast abort")
	}
}

func TestClassifyNeverRegressesProperty(t *testing.T) {
	// Adding votes must never move a fast outcome back to pending.
	c := Config{F: 1}
	f := func(commits, aborts uint8) bool {
		cm, ab := int(commits%7), int(aborts%7)
		if cm+ab > c.N() {
			return true
		}
		o := c.Classify(cm, ab, false)
		if o == OutcomeCommitFast || o == OutcomeAbortFast {
			o2 := c.Classify(cm, ab+0, false)
			return o2 == o
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- certificate validation against real signatures ---

type certEnv struct {
	cfg Config
	reg *cryptoutil.Registry
	v   *Verifier
}

func newCertEnv(f int) *certEnv {
	cfg := Config{F: f}
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, cfg.N(), 5)
	v := &Verifier{
		Cfg:      cfg,
		Sigs:     cryptoutil.NewSigVerifier(reg, 128),
		SignerOf: func(shard, replica int32) int32 { return replica },
	}
	return &certEnv{cfg: cfg, reg: reg, v: v}
}

func (e *certEnv) st1r(id types.TxID, replica int32, vote types.Vote) types.ST1Reply {
	r := types.ST1Reply{TxID: id, ShardID: 0, ReplicaID: replica, Vote: vote}
	r.Sig = types.Signature{SignerID: replica, Direct: e.reg.Signer(replica).Sign(r.Payload())}
	return r
}

func (e *certEnv) st2r(id types.TxID, replica int32, dec types.Decision, viewDec uint64) types.ST2Reply {
	r := types.ST2Reply{TxID: id, ShardID: 0, ReplicaID: replica, Decision: dec, ViewDecision: viewDec}
	r.Sig = types.Signature{SignerID: replica, Direct: e.reg.Signer(replica).Sign(r.Payload())}
	return r
}

func testMeta() *types.TxMeta {
	return &types.TxMeta{
		Timestamp: types.Timestamp{Time: 9, ClientID: 1},
		WriteSet:  []types.WriteEntry{{Key: "k", Value: []byte("v")}},
		Shards:    []int32{0},
	}
}

func TestFastCommitCertValidates(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.N()); i++ {
		sc.ST1Rs = append(sc.ST1Rs, e.st1r(id, i, types.VoteCommit))
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err != nil {
		t.Fatalf("valid fast C-CERT rejected: %v", err)
	}
}

func TestFastCommitCertRejectsShortQuorum(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.N()-1); i++ { // one vote short
		sc.ST1Rs = append(sc.ST1Rs, e.st1r(id, i, types.VoteCommit))
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err == nil {
		t.Fatal("5f C-CERT accepted")
	}
}

func TestCertRejectsDuplicateReplicas(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	one := e.st1r(id, 0, types.VoteCommit)
	for i := 0; i < e.cfg.N(); i++ {
		sc.ST1Rs = append(sc.ST1Rs, one) // the same replica six times
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err == nil {
		t.Fatal("duplicate-replica cert accepted")
	}
}

func TestCertRejectsForgedSignature(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.N()); i++ {
		r := e.st1r(id, i, types.VoteCommit)
		if i == 3 {
			r.Sig.Direct[0] ^= 1
		}
		sc.ST1Rs = append(sc.ST1Rs, r)
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err == nil {
		t.Fatal("forged signature accepted")
	}
}

func TestCertRejectsVoteFlip(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	// Signatures are over abort votes, but the cert claims commit.
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.N()); i++ {
		r := e.st1r(id, i, types.VoteAbort)
		r.Vote = types.VoteCommit // flip the field after signing
		sc.ST1Rs = append(sc.ST1Rs, r)
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err == nil {
		t.Fatal("vote-flipped cert accepted (payload must cover the vote)")
	}
}

func TestSlowPathCertValidates(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: meta.LogShard(), Kind: types.CertST2Logged, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.LogQuorum()); i++ {
		sc.ST2Rs = append(sc.ST2Rs, e.st2r(id, i, types.DecisionCommit, 0))
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err != nil {
		t.Fatalf("valid slow C-CERT rejected: %v", err)
	}
}

func TestSlowPathCertRejectsMixedViews(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: meta.LogShard(), Kind: types.CertST2Logged, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.LogQuorum()); i++ {
		view := uint64(0)
		if i == 2 {
			view = 1
		}
		sc.ST2Rs = append(sc.ST2Rs, e.st2r(id, i, types.DecisionCommit, view))
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err == nil {
		t.Fatal("mixed-view slow cert accepted")
	}
}

func TestFastAbortCertValidates(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteAbort}
	for i := int32(0); i < int32(e.cfg.FastAbort()); i++ {
		sc.ST1Rs = append(sc.ST1Rs, e.st1r(id, i, types.VoteAbort))
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionAbort, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err != nil {
		t.Fatalf("valid fast A-CERT rejected: %v", err)
	}
}

func TestConflictCertValidates(t *testing.T) {
	e := newCertEnv(1)
	// The committed conflicting transaction T'.
	confMeta := testMeta()
	confID := confMeta.ID()
	confSC := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.N()); i++ {
		confSC.ST1Rs = append(confSC.ST1Rs, e.st1r(confID, i, types.VoteCommit))
	}
	confCert := &types.DecisionCert{TxID: confID, Decision: types.DecisionCommit, Shards: []types.ShardCert{confSC}}

	// The aborted transaction T, with one abort vote plus T''s C-CERT.
	meta := testMeta()
	meta.Timestamp = types.Timestamp{Time: 20, ClientID: 3}
	id := meta.ID()
	sc := types.ShardCert{
		ShardID: 0, Kind: types.CertConflict, Vote: types.VoteAbort,
		ST1Rs:    []types.ST1Reply{e.st1r(id, 2, types.VoteAbort)},
		Conflict: confCert, ConflictMeta: confMeta,
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionAbort, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err != nil {
		t.Fatalf("valid conflict A-CERT rejected: %v", err)
	}
	// Without the inner certificate the same shape must fail (fresh
	// verifier: the cert cache legitimately remembers the good one).
	e2 := newCertEnv(1)
	sc.Conflict = nil
	bad := &types.DecisionCert{TxID: id, Decision: types.DecisionAbort, Shards: []types.ShardCert{sc}}
	if err := e2.v.VerifyDecisionCert(bad, meta); err == nil {
		t.Fatal("conflict cert without inner C-CERT accepted")
	}
}

func TestTallyJustification(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	commitTally := types.VoteTally{TxID: id, ShardID: 0, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.CommitQuorum()); i++ {
		commitTally.Replies = append(commitTally.Replies, e.st1r(id, i, types.VoteCommit))
	}
	if err := e.v.VerifyTallyJustifies(meta, types.DecisionCommit, []types.VoteTally{commitTally}); err != nil {
		t.Fatalf("valid commit tally rejected: %v", err)
	}
	// A commit decision without a CQ for the shard must fail.
	short := commitTally
	short.Replies = short.Replies[:e.cfg.CommitQuorum()-1]
	if err := e.v.VerifyTallyJustifies(meta, types.DecisionCommit, []types.VoteTally{short}); err == nil {
		t.Fatal("short commit tally accepted")
	}
	// Abort needs only AQ = f+1.
	abortTally := types.VoteTally{TxID: id, ShardID: 0, Vote: types.VoteAbort}
	for i := int32(0); i < int32(e.cfg.AbortQuorum()); i++ {
		abortTally.Replies = append(abortTally.Replies, e.st1r(id, i, types.VoteAbort))
	}
	if err := e.v.VerifyTallyJustifies(meta, types.DecisionAbort, []types.VoteTally{abortTally}); err != nil {
		t.Fatalf("valid abort tally rejected: %v", err)
	}
	// A single abort vote with no conflict cert must not justify abort.
	one := abortTally
	one.Replies = one.Replies[:1]
	if err := e.v.VerifyTallyJustifies(meta, types.DecisionAbort, []types.VoteTally{one}); err == nil {
		t.Fatal("single abort vote justified an abort (Byzantine independence broken)")
	}
}

func TestCertCacheHit(t *testing.T) {
	e := newCertEnv(1)
	meta := testMeta()
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	for i := int32(0); i < int32(e.cfg.N()); i++ {
		sc.ST1Rs = append(sc.ST1Rs, e.st1r(id, i, types.VoteCommit))
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
	if err := e.v.VerifyDecisionCert(cert, meta); err != nil {
		t.Fatal(err)
	}
	// Second verification must hit the cache: even a gutted cert with the
	// same (tx, decision) passes, which is sound by Lemma 2.
	gutted := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit}
	if err := e.v.VerifyDecisionCert(gutted, meta); err != nil {
		t.Fatal("cache did not serve repeat verification")
	}
	// But the opposite decision must not be cached.
	wrong := &types.DecisionCert{TxID: id, Decision: types.DecisionAbort}
	if err := e.v.VerifyDecisionCert(wrong, meta); err == nil {
		t.Fatal("uncached abort cert accepted")
	}
}

// TestReplicaSetBeyond64: indices past the first word (shards of more
// than 64 replicas) are tracked as exactly as the first 64.
func TestReplicaSetBeyond64(t *testing.T) {
	var s ReplicaSet
	ids := []int32{0, 63, 64, 127, 200}
	for _, i := range ids {
		if !s.Add(i) || s.Add(i) || !s.Has(i) {
			t.Fatalf("index %d: add/duplicate/has wrong", i)
		}
	}
	for _, i := range []int32{1, 62, 65, 128, 199, 201} {
		if s.Has(i) {
			t.Fatalf("index %d reported present", i)
		}
	}
}

// fastCerts returns n distinct fast commit certificates of 5f+1 votes
// each, with their metadata.
func (e *certEnv) fastCerts(n int) ([]*types.DecisionCert, []*types.TxMeta) {
	certs := make([]*types.DecisionCert, n)
	metas := make([]*types.TxMeta, n)
	for k := range certs {
		meta := testMeta()
		meta.Timestamp.Time = uint64(100 + k)
		id := meta.ID()
		sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
		for i := int32(0); i < int32(e.cfg.N()); i++ {
			sc.ST1Rs = append(sc.ST1Rs, e.st1r(id, i, types.VoteCommit))
		}
		certs[k] = &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}}
		metas[k] = meta
	}
	return certs, metas
}

// TestVerifyDecisionCertAllocs pins a fast certificate's check at three
// allocations per certificate (the entry callback, and the two of a
// VerifyPool.All batch) and none per signature: a 6-vote (f = 1)
// and an 11-vote (f = 2) certificate allocate the same, with the
// verifier's pool attached as on a replica. Each run checks a fresh
// certificate, so the verified-certificate cache never answers.
func TestVerifyDecisionCertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const runs = 20
	pool := cryptoutil.NewVerifyPool(2)
	defer pool.Close()
	var got [2]float64
	for j, f := range []int{1, 2} {
		e := newCertEnv(f)
		e.v.Pool = pool
		certs, metas := e.fastCerts(runs + 2)
		if err := e.v.VerifyDecisionCert(certs[0], metas[0]); err != nil {
			t.Fatal(err) // builds the key tables and warms the pools
		}
		k := 1
		got[j] = testing.AllocsPerRun(runs, func() {
			if err := e.v.VerifyDecisionCert(certs[k], metas[k]); err != nil {
				t.Fatal(err)
			}
			k++
		})
	}
	if got[0] > 3 || got[1] != got[0] {
		t.Fatalf("allocations per certificate: %v with 6 votes, %v with 11; want at most 3, equal", got[0], got[1])
	}
}

// TestConcurrentCertChecks verifies certificates and tallies from many
// goroutines through one Verifier and pool, racing the certificate cache
// and the pooled check scratch (run under -race by make test-race); a
// copy with one corrupted vote is refused every time.
func TestConcurrentCertChecks(t *testing.T) {
	e := newCertEnv(1)
	pool := cryptoutil.NewVerifyPool(2)
	defer pool.Close()
	e.v.Pool = pool
	certs, metas := e.fastCerts(24)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range certs {
				k := (k + g*5) % len(certs)
				if err := e.v.VerifyDecisionCert(certs[k], metas[k]); err != nil {
					t.Errorf("cert %d: %v", k, err)
				}
				votes := append([]types.ST1Reply(nil), certs[k].Shards[0].ST1Rs...)
				votes[g].Sig.Direct[9] ^= 1
				tally := types.VoteTally{TxID: certs[k].TxID, ShardID: 0, Vote: types.VoteCommit, Replies: votes}
				if e.v.VerifyTallyJustifies(metas[k], types.DecisionCommit, []types.VoteTally{tally}) == nil {
					t.Errorf("cert %d: tally with corrupted vote %d accepted", k, g)
				}
			}
		}(g)
	}
	wg.Wait()
}
