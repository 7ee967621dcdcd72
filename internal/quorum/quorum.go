// Package quorum centralizes Basil's quorum arithmetic for n = 5f+1
// replicas per shard (paper §3, §4.2, §4.5) and the classification of
// stage-1 vote tallies into the paper's five outcome cases, plus validation
// of vote certificates (V-CERT / C-CERT / A-CERT).
//
// Ownership: Config and Verifier are immutable after construction and
// safe for concurrent use; Verifier fans batch signature checks out
// through an optional shared cryptoutil.VerifyPool and holds no locks of
// its own.
package quorum

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/types"
)

// Config fixes the per-shard fault threshold.
type Config struct {
	F int
}

// N returns the replication factor 5f+1.
func (c Config) N() int { return 5*c.F + 1 }

// CommitQuorum returns |CQ| = (n+f+1)/2 = 3f+1.
func (c Config) CommitQuorum() int { return 3*c.F + 1 }

// AbortQuorum returns |AQ| = f+1 (minimum abort evidence preserving
// Byzantine independence).
func (c Config) AbortQuorum() int { return c.F + 1 }

// FastCommit returns the unanimous fast-path commit threshold 5f+1.
func (c Config) FastCommit() int { return 5*c.F + 1 }

// FastAbort returns the durable fast-path abort threshold 3f+1.
func (c Config) FastAbort() int { return 3*c.F + 1 }

// LogQuorum returns n-f = 4f+1, the ST2 logging quorum.
func (c Config) LogQuorum() int { return 4*c.F + 1 }

// ElectQuorum returns 4f+1, the fallback leader election threshold.
func (c Config) ElectQuorum() int { return 4*c.F + 1 }

// ReadValidity returns f+1: replies needed before a read may be trusted.
func (c Config) ReadValidity() int { return c.F + 1 }

// ViewCatchupStrong returns 3f+1: matching views that let a replica advance
// to view v+1 (fallback rule R1).
func (c Config) ViewCatchupStrong() int { return 3*c.F + 1 }

// ViewCatchupWeak returns f+1: matching views that let a replica jump to a
// larger view (fallback rule R2).
func (c Config) ViewCatchupWeak() int { return c.F + 1 }

// ShardOutcome classifies a shard's stage-1 tally (paper §4.2 step 4).
type ShardOutcome uint8

// Tally classifications.
const (
	// OutcomePending: not enough votes yet to classify.
	OutcomePending ShardOutcome = iota
	// OutcomeCommitFast: 5f+1 commit votes; vote durable (case 3).
	OutcomeCommitFast
	// OutcomeCommitSlow: ≥3f+1 commit votes; requires ST2 logging (case 1).
	OutcomeCommitSlow
	// OutcomeAbortFast: ≥3f+1 abort votes (case 4) or an abort with a
	// conflicting commit certificate (case 5); vote durable.
	OutcomeAbortFast
	// OutcomeAbortSlow: ≥f+1 abort votes; requires ST2 logging (case 2).
	OutcomeAbortSlow
	// OutcomeStuck: all n replicas voted yet neither quorum can be
	// reached (possible only with Byzantine replicas voting both ways is
	// impossible — kept for defensive completeness when replies conflict).
	OutcomeStuck
)

func (o ShardOutcome) String() string {
	switch o {
	case OutcomeCommitFast:
		return "commit-fast"
	case OutcomeCommitSlow:
		return "commit-slow"
	case OutcomeAbortFast:
		return "abort-fast"
	case OutcomeAbortSlow:
		return "abort-slow"
	case OutcomeStuck:
		return "stuck"
	default:
		return "pending"
	}
}

// Classify maps (commit votes, abort votes, presence of a conflict
// certificate) to a shard outcome. received is the total distinct replies.
//
// Classification is performed eagerly in priority order: a conflict
// certificate or a full fast quorum short-circuits; otherwise the client
// keeps waiting until every reply that can still arrive cannot change the
// class (the caller decides when to stop waiting for the fast path; see
// WaitHint).
func (c Config) Classify(commits, aborts int, conflict bool) ShardOutcome {
	switch {
	case conflict:
		return OutcomeAbortFast
	case commits >= c.FastCommit():
		return OutcomeCommitFast
	case aborts >= c.FastAbort():
		return OutcomeAbortFast
	case commits >= c.CommitQuorum():
		return OutcomeCommitSlow
	case aborts >= c.AbortQuorum():
		return OutcomeAbortSlow
	default:
		return OutcomePending
	}
}

// FastStillPossible reports whether waiting for more votes could still
// upgrade the tally to a fast outcome, given votes received so far.
func (c Config) FastStillPossible(commits, aborts int) bool {
	remaining := c.N() - commits - aborts
	if remaining < 0 {
		remaining = 0
	}
	return commits+remaining >= c.FastCommit() || aborts+remaining >= c.FastAbort()
}

// Errors returned by certificate validation.
var (
	ErrBadCert       = errors.New("quorum: invalid certificate")
	ErrWrongDecision = errors.New("quorum: certificate decision mismatch")
)

// SignerOf maps a (shard, replica index) pair to the global key-registry
// id of that replica, binding shard-local reply fields to real keys.
type SignerOf func(shard, replica int32) int32

// Verifier validates tallies and decision certificates. It caches
// successful certificate verifications by (transaction, decision): by
// Lemma 2 a transaction cannot have both a commit and an abort
// certificate, so any later structurally valid certificate for the same
// pair proves the same fact. This mirrors the paper's signature-caching
// philosophy (§4.4) one level up and saves the dominant verification cost
// on hot keys, whose commit certificates accompany every read reply.
type Verifier struct {
	Cfg      Config
	Sigs     *cryptoutil.SigVerifier
	SignerOf SignerOf
	// Pool, if non-nil, fans the signature checks of multi-reply
	// validations (vote tallies, shard certificates) across its workers.
	// Field consistency and duplicate detection stay sequential; only the
	// ed25519 work parallelizes. Safe to share with the replica's ingest
	// pool: batch verification falls back to inline execution when the
	// pool is busy or closed.
	Pool *cryptoutil.VerifyPool

	// mu guards certCache; signature checks run outside it.
	mu        sync.Mutex
	certCache map[certKey]bool
}

// allSigs runs n independent signature checks, in parallel when a pool is
// attached, and reports whether all passed.
func (v *Verifier) allSigs(n int, check func(i int) bool) bool {
	if v.Pool == nil || n < 2 {
		for i := 0; i < n; i++ {
			if !check(i) {
				return false
			}
		}
		return true
	}
	return v.Pool.All(n, check)
}

// certCacheCap bounds the verified-certificate cache, matching the
// SigVerifier caches. A replica meets each writeback's certificate about
// once: duplicate writebacks are answered from the store before
// verification, so a larger cache only holds dead entries.
const certCacheCap = 4096

type certKey struct {
	id  types.TxID
	dec types.Decision
}

func (v *Verifier) cachedCert(id types.TxID, dec types.Decision) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.certCache[certKey{id, dec}]
}

func (v *Verifier) cacheCert(id types.TxID, dec types.Decision) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.certCache == nil {
		v.certCache = make(map[certKey]bool)
	}
	if len(v.certCache) > certCacheCap {
		v.certCache = make(map[certKey]bool)
	}
	v.certCache[certKey{id, dec}] = true
}

// checkST1Fields validates everything about a vote except its signature.
func (v *Verifier) checkST1Fields(r *types.ST1Reply, id types.TxID) error {
	if r.TxID != id {
		return fmt.Errorf("%w: st1r for wrong tx", ErrBadCert)
	}
	if r.ReplicaID < 0 || int(r.ReplicaID) >= v.Cfg.N() {
		return fmt.Errorf("%w: replica id %d out of range", ErrBadCert, r.ReplicaID)
	}
	if r.Sig.SignerID != v.SignerOf(r.ShardID, r.ReplicaID) {
		return fmt.Errorf("%w: signer/replica mismatch", ErrBadCert)
	}
	return nil
}

// verifyST1Sig checks one vote's signature.
func (v *Verifier) verifyST1Sig(r *types.ST1Reply) bool {
	sig := r.Sig
	return v.Sigs.Verify(r.Payload(), &sig)
}

// VerifyST1Reply checks one vote's signature and field consistency.
func (v *Verifier) VerifyST1Reply(r *types.ST1Reply, id types.TxID) error {
	if err := v.checkST1Fields(r, id); err != nil {
		return err
	}
	if !v.verifyST1Sig(r) {
		return fmt.Errorf("%w: bad st1r signature", ErrBadCert)
	}
	return nil
}

// checkST2Fields validates everything about an acknowledgement except its
// signature.
func (v *Verifier) checkST2Fields(r *types.ST2Reply, id types.TxID) error {
	if r.TxID != id {
		return fmt.Errorf("%w: st2r for wrong tx", ErrBadCert)
	}
	if r.ReplicaID < 0 || int(r.ReplicaID) >= v.Cfg.N() {
		return fmt.Errorf("%w: replica id %d out of range", ErrBadCert, r.ReplicaID)
	}
	if r.Sig.SignerID != v.SignerOf(r.ShardID, r.ReplicaID) {
		return fmt.Errorf("%w: signer/replica mismatch", ErrBadCert)
	}
	return nil
}

// verifyST2Sig checks one acknowledgement's signature.
func (v *Verifier) verifyST2Sig(r *types.ST2Reply) bool {
	sig := r.Sig
	return v.Sigs.Verify(r.Payload(), &sig)
}

// VerifyST2Reply checks one logged-decision acknowledgement.
func (v *Verifier) VerifyST2Reply(r *types.ST2Reply, id types.TxID) error {
	if err := v.checkST2Fields(r, id); err != nil {
		return err
	}
	if !v.verifyST2Sig(r) {
		return fmt.Errorf("%w: bad st2r signature", ErrBadCert)
	}
	return nil
}

// VerifyShardCert validates one shard's V-CERT for transaction id with the
// expected vote.
func (v *Verifier) VerifyShardCert(sc *types.ShardCert, id types.TxID) error {
	switch sc.Kind {
	case types.CertST1Fast:
		need := v.Cfg.FastCommit()
		if sc.Vote == types.VoteAbort {
			need = v.Cfg.FastAbort()
		}
		return v.countST1(sc, id, sc.Vote, need)
	case types.CertST2Logged:
		seen := make(map[int32]bool)
		var dec types.Decision
		var view uint64
		for i := range sc.ST2Rs {
			r := &sc.ST2Rs[i]
			if r.ShardID != sc.ShardID || seen[r.ReplicaID] {
				return fmt.Errorf("%w: duplicate/foreign st2r", ErrBadCert)
			}
			if i == 0 {
				dec, view = r.Decision, r.ViewDecision
			} else if r.Decision != dec || r.ViewDecision != view {
				return fmt.Errorf("%w: st2r decision/view mismatch", ErrBadCert)
			}
			if err := v.checkST2Fields(r, id); err != nil {
				return err
			}
			seen[r.ReplicaID] = true
		}
		if len(seen) < v.Cfg.LogQuorum() {
			return fmt.Errorf("%w: %d st2r < log quorum %d", ErrBadCert, len(seen), v.Cfg.LogQuorum())
		}
		if !v.allSigs(len(sc.ST2Rs), func(i int) bool { return v.verifyST2Sig(&sc.ST2Rs[i]) }) {
			return fmt.Errorf("%w: bad st2r signature", ErrBadCert)
		}
		want := types.DecisionCommit
		if sc.Vote == types.VoteAbort {
			want = types.DecisionAbort
		}
		if dec != want {
			return fmt.Errorf("%w: st2 decision %v for vote %v", ErrBadCert, dec, sc.Vote)
		}
		return nil
	case types.CertConflict:
		if sc.Vote != types.VoteAbort {
			return fmt.Errorf("%w: conflict cert must abort", ErrBadCert)
		}
		if err := v.countST1(sc, id, types.VoteAbort, 1); err != nil {
			return err
		}
		if sc.Conflict == nil || sc.ConflictMeta == nil {
			return fmt.Errorf("%w: missing conflict certificate", ErrBadCert)
		}
		if sc.Conflict.Decision != types.DecisionCommit {
			return fmt.Errorf("%w: conflict cert is not a commit", ErrBadCert)
		}
		if sc.ConflictMeta.ID() != sc.Conflict.TxID {
			return fmt.Errorf("%w: conflict meta/cert mismatch", ErrBadCert)
		}
		return v.VerifyDecisionCert(sc.Conflict, sc.ConflictMeta)
	default:
		return fmt.Errorf("%w: unknown shard-cert kind %d", ErrBadCert, sc.Kind)
	}
}

func (v *Verifier) countST1(sc *types.ShardCert, id types.TxID, vote types.Vote, need int) error {
	seen := make(map[int32]bool)
	for i := range sc.ST1Rs {
		r := &sc.ST1Rs[i]
		if r.ShardID != sc.ShardID || r.Vote != vote || seen[r.ReplicaID] {
			return fmt.Errorf("%w: inconsistent st1r set", ErrBadCert)
		}
		if err := v.checkST1Fields(r, id); err != nil {
			return err
		}
		seen[r.ReplicaID] = true
	}
	if len(seen) < need {
		return fmt.Errorf("%w: %d votes < required %d", ErrBadCert, len(seen), need)
	}
	if !v.allSigs(len(sc.ST1Rs), func(i int) bool { return v.verifyST1Sig(&sc.ST1Rs[i]) }) {
		return fmt.Errorf("%w: bad st1r signature", ErrBadCert)
	}
	return nil
}

// VerifyDecisionCert validates a full C-CERT/A-CERT against the
// transaction metadata (paper §4.3 step 2).
//
// Commit certificates must either carry a fast-path ST1 V-CERT for every
// participant shard, or a single logging-shard ST2 V-CERT. Abort
// certificates need a single aborting shard's V-CERT (fast) or the logging
// shard's ST2 V-CERT (slow).
func (v *Verifier) VerifyDecisionCert(cert *types.DecisionCert, meta *types.TxMeta) error {
	id := meta.ID()
	if cert.TxID != id {
		return fmt.Errorf("%w: cert tx id mismatch", ErrBadCert)
	}
	if v.cachedCert(id, cert.Decision) {
		return nil
	}
	if err := v.verifyDecisionCertSlow(cert, meta, id); err != nil {
		return err
	}
	v.cacheCert(id, cert.Decision)
	return nil
}

func (v *Verifier) verifyDecisionCertSlow(cert *types.DecisionCert, meta *types.TxMeta, id types.TxID) error {
	switch cert.Decision {
	case types.DecisionCommit:
		if len(cert.Shards) == 1 && cert.Shards[0].Kind == types.CertST2Logged {
			sc := &cert.Shards[0]
			if sc.ShardID != meta.LogShard() {
				return fmt.Errorf("%w: st2 cert from non-logging shard", ErrBadCert)
			}
			if sc.Vote != types.VoteCommit {
				return ErrWrongDecision
			}
			return v.VerifyShardCert(sc, id)
		}
		// Fast path: one fast commit V-CERT per participant shard.
		have := make(map[int32]bool)
		for i := range cert.Shards {
			sc := &cert.Shards[i]
			if sc.Kind != types.CertST1Fast || sc.Vote != types.VoteCommit {
				return fmt.Errorf("%w: fast C-CERT needs fast commit shard certs", ErrBadCert)
			}
			if !meta.HasShard(sc.ShardID) || have[sc.ShardID] {
				return fmt.Errorf("%w: unexpected shard %d in cert", ErrBadCert, sc.ShardID)
			}
			if err := v.VerifyShardCert(sc, id); err != nil {
				return err
			}
			have[sc.ShardID] = true
		}
		if len(have) != len(meta.Shards) {
			return fmt.Errorf("%w: fast C-CERT covers %d of %d shards", ErrBadCert, len(have), len(meta.Shards))
		}
		return nil
	case types.DecisionAbort:
		if len(cert.Shards) != 1 {
			return fmt.Errorf("%w: A-CERT needs exactly one shard cert", ErrBadCert)
		}
		sc := &cert.Shards[0]
		if !meta.HasShard(sc.ShardID) {
			return fmt.Errorf("%w: aborting shard %d not a participant", ErrBadCert, sc.ShardID)
		}
		if sc.Kind == types.CertST2Logged {
			if sc.ShardID != meta.LogShard() {
				return fmt.Errorf("%w: st2 cert from non-logging shard", ErrBadCert)
			}
			if sc.Vote != types.VoteAbort {
				return ErrWrongDecision
			}
			return v.VerifyShardCert(sc, id)
		}
		if sc.Vote != types.VoteAbort {
			return ErrWrongDecision
		}
		return v.VerifyShardCert(sc, id)
	default:
		return fmt.Errorf("%w: decision %v", ErrBadCert, cert.Decision)
	}
}

// VerifyTallyJustifies checks that a set of tallies justifies the claimed
// 2PC decision (used by replicas validating ST2 requests, paper §4.2
// step 6): commit requires a commit tally (≥CQ) for every participant
// shard; abort requires an abort tally (≥AQ) or conflict for at least one.
func (v *Verifier) VerifyTallyJustifies(meta *types.TxMeta, dec types.Decision, tallies []types.VoteTally) error {
	id := meta.ID()
	byShard := make(map[int32]*types.VoteTally)
	for i := range tallies {
		t := &tallies[i]
		if t.TxID != id {
			return fmt.Errorf("%w: tally for wrong tx", ErrBadCert)
		}
		byShard[t.ShardID] = t
	}
	switch dec {
	case types.DecisionCommit:
		for _, sh := range meta.Shards {
			t := byShard[sh]
			if t == nil || t.Vote != types.VoteCommit {
				return fmt.Errorf("%w: missing commit tally for shard %d", ErrBadCert, sh)
			}
			if err := v.verifyTallyVotes(t, id, v.Cfg.CommitQuorum()); err != nil {
				return err
			}
		}
		return nil
	case types.DecisionAbort:
		for _, t := range byShard {
			if t.Vote != types.VoteAbort {
				continue
			}
			if t.Conflict != nil && t.ConflictMeta != nil {
				if t.ConflictMeta.ID() == t.Conflict.TxID &&
					t.Conflict.Decision == types.DecisionCommit &&
					v.VerifyDecisionCert(t.Conflict, t.ConflictMeta) == nil &&
					v.verifyTallyVotes(t, id, 1) == nil {
					return nil
				}
				continue
			}
			if err := v.verifyTallyVotes(t, id, v.Cfg.AbortQuorum()); err == nil {
				return nil
			}
		}
		return fmt.Errorf("%w: no abort quorum in tallies", ErrBadCert)
	default:
		return fmt.Errorf("%w: decision %v", ErrBadCert, dec)
	}
}

func (v *Verifier) verifyTallyVotes(t *types.VoteTally, id types.TxID, need int) error {
	seen := make(map[int32]bool)
	for i := range t.Replies {
		r := &t.Replies[i]
		if r.ShardID != t.ShardID || r.Vote != t.Vote || seen[r.ReplicaID] {
			return fmt.Errorf("%w: inconsistent tally", ErrBadCert)
		}
		if err := v.checkST1Fields(r, id); err != nil {
			return err
		}
		seen[r.ReplicaID] = true
	}
	if len(seen) < need {
		return fmt.Errorf("%w: tally %d < %d", ErrBadCert, len(seen), need)
	}
	if !v.allSigs(len(t.Replies), func(i int) bool { return v.verifyST1Sig(&t.Replies[i]) }) {
		return fmt.Errorf("%w: bad st1r signature in tally", ErrBadCert)
	}
	return nil
}
