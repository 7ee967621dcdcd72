package types

// Protocol messages. One struct per arrow in the paper's figures 1 and 3.
//
// Every message that a replica signs carries a Signature; the signed bytes
// are produced by the message's Payload method (domain-separated canonical
// encoding). Batched signatures (paper §4.4) share a Merkle root: the
// Signature then carries the root, the root signature and the inclusion
// proof instead of a direct signature. Read replies are the exception:
// only the client that asked ever checks one, so they carry a pairwise
// MAC instead (ReadReply.MAC).

// MsgType discriminates transport envelopes.
type MsgType uint8

// Message type tags for transport dispatch.
const (
	MsgRead MsgType = iota + 1
	MsgReadReply
	MsgST1
	MsgST1Reply
	MsgST2
	MsgST2Reply
	MsgWriteback
	MsgInvokeFB
	MsgElectFB
	MsgDecFB
	MsgAbortRead  // release RTS after client-side Abort during execution
	MsgOverloaded // explicit load-shed reply from an over-capacity replica
)

// Signature authenticates a replica reply. Exactly one of Direct or Batch
// is populated. SignerID is the replica's global key-registry index.
type Signature struct {
	SignerID int32
	// Direct is an ed25519 signature over the payload digest.
	Direct []byte
	// Batch is the Merkle-batched form (paper §4.4), nil for a direct
	// signature. It sits behind a pointer so the common direct signature
	// does not carry its 80 bytes.
	Batch *BatchProof
}

// BatchProof is the batched form of a Signature: the payload's leaf hash
// is proven against Root by Proof/Index, and RootSig signs Root.
type BatchProof struct {
	Root    [32]byte
	RootSig []byte
	Proof   [][32]byte
	Index   uint32
}

// IsBatched reports whether the signature uses the Merkle-batched form.
func (s *Signature) IsBatched() bool { return s.Batch != nil && len(s.Batch.RootSig) > 0 }

// domain tags keep signature payloads for different message kinds disjoint.
const (
	domST1R    = "basil/st1r/"
	domST2R    = "basil/st2r/"
	domRead    = "basil/read/"
	domElectFB = "basil/electfb/"
	domDecFB   = "basil/decfb/"
)

// ReadRequest asks a replica for the latest committed and prepared versions
// of Key below Ts (paper §4.1 Read).
type ReadRequest struct {
	ReqID    uint64
	ClientID uint64
	Key      string
	Ts       Timestamp
	// ClientKey is the client's X25519 public key; the replica MACs its
	// reply under the key the two share (cryptoutil.MACKey). Zero under
	// the NoProofs scheme.
	ClientKey [32]byte
	// TC is the advisory trace context (tracectx.go); unsampled contexts
	// add no wire bytes.
	TC TraceContext
}

// CommittedRead is a replica's committed branch of a read reply. A client
// accepts it when f+1 replicas report the same (version, WriterID, Value);
// otherwise it verifies the version against the commit certificate:
// H(WriterMeta) must equal Cert.TxID and (Key,Value) must appear in
// WriterMeta.WriteSet. The genesis version (zero timestamp) carries no
// writer and no certificate and is trusted as the load-time state.
type CommittedRead struct {
	Value []byte
	// WriterID is the writer's transaction id as the replica's store
	// holds it (zero for genesis). It is MACed with the reply, so replies
	// that agree on it agree on the writer.
	WriterID   TxID
	WriterMeta *TxMeta       // nil for the genesis version
	Cert       *DecisionCert // nil for the genesis version
}

// Version returns the committed version's timestamp.
func (c *CommittedRead) Version() Timestamp {
	if c.WriterMeta == nil {
		return Timestamp{}
	}
	return c.WriterMeta.Timestamp
}

// PreparedRead is a replica's prepared branch of a read reply: a visible but
// uncommitted write. Clients accept it only when f+1 replicas return the
// same (version, WriterID, Value) (paper §4.1 step 3), and record the
// dependency only after checking H(WriterMeta) = WriterID. The full writer
// metadata is included so that a dependent client can later finish the
// writer via the fallback.
type PreparedRead struct {
	Value      []byte
	WriterID   TxID
	WriterMeta *TxMeta
}

// Version returns the prepared version's timestamp, zero when the reply
// carries no writer metadata (a malformed reply, which clients ignore).
func (p *PreparedRead) Version() Timestamp {
	if p.WriterMeta == nil {
		return Timestamp{}
	}
	return p.WriterMeta.Timestamp
}

// ReadReply answers a ReadRequest (paper §4.1 step 2). It is
// authenticated by an HMAC-SHA256 under the key the replica shares with
// the requesting client, not by a signature: no certificate embeds a read
// reply and replicas validate dependencies from their own stores, so the
// proof never needs to convince a third party. MAC is zero under the
// NoProofs scheme.
type ReadReply struct {
	ReqID     uint64
	Key       string
	ShardID   int32
	ReplicaID int32 // index within the shard
	Committed *CommittedRead
	Prepared  *PreparedRead
	MAC       [32]byte
}

// AppendPayload appends the MACed bytes of the read reply to b. The
// payload covers the versions, writer ids and values, not the
// certificates or writer metadata (the client checks those against the
// writer id itself).
func (r *ReadReply) AppendPayload(b []byte) []byte {
	b = append(b, domRead...)
	b = appendU64(b, r.ReqID)
	b = appendString(b, r.Key)
	b = appendU32(b, uint32(r.ShardID))
	b = appendU32(b, uint32(r.ReplicaID))
	if r.Committed != nil {
		b = append(b, 1)
		b = r.Committed.Version().AppendCanonical(b)
		b = append(b, r.Committed.WriterID[:]...)
		b = appendBytes(b, r.Committed.Value)
	} else {
		b = append(b, 0)
	}
	if r.Prepared != nil {
		b = append(b, 1)
		b = r.Prepared.Version().AppendCanonical(b)
		b = append(b, r.Prepared.WriterID[:]...)
		b = appendBytes(b, r.Prepared.Value)
	} else {
		b = append(b, 0)
	}
	return b
}

// AbortRead tells replicas to drop the read timestamps a transaction placed
// during execution (paper §4.1 Abort). Best-effort; replicas also expire
// RTS entries on their own.
type AbortRead struct {
	ClientID uint64
	Ts       Timestamp
	Keys     []string
}

// ST1Request carries the full transaction in the Prepare phase (paper §4.2
// stage 1). Recovery marks it as an RP (Recovery Prepare) resend by an
// interested client (paper §5 common case).
type ST1Request struct {
	ReqID    uint64
	ClientID uint64
	Meta     *TxMeta
	Recovery bool
	// TC is the advisory trace context (tracectx.go).
	TC TraceContext
}

// RPKind tells which artifact an RP reply fast-forwards the client to.
type RPKind uint8

// RP reply kinds (paper §5: RPR is an ST1R, an ST2R, or a certificate).
const (
	RPNone     RPKind = iota
	RPVote            // replica has (only) an ST1 vote
	RPDecision        // replica has a logged ST2 decision
	RPCert            // replica holds the final decision certificate
)

// ST1Reply is a replica's signed concurrency-control vote (paper §4.2
// step 3). Everything beyond the vote itself — conflict evidence and
// recovery state — sits behind Ev, so the plain votes that certificates
// hold by the thousand stay small (104 bytes). RPKind and Decision stay
// inline: every vote sets RPKind, and moving it would allocate Ev for all
// of them.
type ST1Reply struct {
	ReqID     uint64
	TxID      TxID
	ShardID   int32
	ReplicaID int32
	Vote      Vote
	// Recovery fast-forward state (populated only on RP replies).
	RPKind   RPKind
	Decision Decision // with RPDecision: the logged decision
	// Ev is the optional evidence; nil on a plain vote. Read it through
	// Evidence.
	Ev  *ST1Evidence
	Sig Signature
}

// ST1Evidence is the optional part of an ST1Reply. When the vote is Abort
// because of a conflict with a committed transaction, Conflict carries
// that transaction's commit certificate and ConflictMeta its metadata
// (abort fast path case 5).
type ST1Evidence struct {
	Conflict     *DecisionCert
	ConflictMeta *TxMeta
	// BlockedBy carries the metadata of the prepared-but-undecided
	// transaction that caused an abort vote, letting the aborted client
	// finish it via the fallback (§5 invariant). Advisory: it is not part
	// of the signed payload and is never required for safety.
	BlockedBy *TxMeta
	ST2R      *ST2Reply // with RPDecision: the signed logged decision
	Cert      *DecisionCert
	CertMeta  *TxMeta
}

// noEvidence is what Evidence returns for a plain vote.
var noEvidence ST1Evidence

// Evidence returns r's optional evidence, or an all-nil value when r is a
// plain vote. The result is read-only.
func (r *ST1Reply) Evidence() *ST1Evidence {
	if r.Ev == nil {
		return &noEvidence
	}
	return r.Ev
}

// isZero reports whether e carries no evidence at all.
func (e *ST1Evidence) isZero() bool { return *e == noEvidence }

// Payload returns the signed bytes of the vote: domain, tx id, shard and
// replica, and the vote itself.
func (r *ST1Reply) Payload() []byte {
	b := make([]byte, 0, 64)
	b = append(b, domST1R...)
	b = append(b, r.TxID[:]...)
	b = appendU32(b, uint32(r.ShardID))
	b = appendU32(b, uint32(r.ReplicaID))
	b = append(b, byte(r.Vote))
	return b
}

// VoteTally is the client's record of a shard's stage-1 votes (paper §4.2
// step 4). For fast shards the tally doubles as the durable V-CERT.
type VoteTally struct {
	TxID         TxID
	ShardID      int32
	Vote         Vote
	Replies      []ST1Reply
	Conflict     *DecisionCert // abort-with-conflicting-C-CERT fast path
	ConflictMeta *TxMeta
}

// ST2Request logs the client's tentative 2PC decision on the logging shard
// (paper §4.2 stage 2). Tallies justify the decision. View is 0 for the
// original client and >0 when resent under the fallback.
type ST2Request struct {
	ReqID    uint64
	ClientID uint64
	TxID     TxID
	Meta     *TxMeta
	Decision Decision
	Tallies  []VoteTally
	View     uint64
	// TC is the advisory trace context (tracectx.go).
	TC TraceContext
}

// ST2Reply acknowledges a logged decision (paper §4.2 step 6). ViewDecision
// is the view in which the logged decision was adopted; ViewCurrent is the
// replica's current fallback view for this transaction (paper §5).
type ST2Reply struct {
	ReqID        uint64
	TxID         TxID
	ShardID      int32
	ReplicaID    int32
	Decision     Decision
	ViewDecision uint64
	ViewCurrent  uint64
	Sig          Signature
}

// Payload returns the signed bytes of the logged-decision acknowledgement.
func (r *ST2Reply) Payload() []byte {
	b := make([]byte, 0, 80)
	b = append(b, domST2R...)
	b = append(b, r.TxID[:]...)
	b = appendU32(b, uint32(r.ShardID))
	b = appendU32(b, uint32(r.ReplicaID))
	b = append(b, byte(r.Decision))
	b = appendU64(b, r.ViewDecision)
	b = appendU64(b, r.ViewCurrent)
	return b
}

// ShardCertKind says how a shard's vote was made durable.
type ShardCertKind uint8

// Shard certificate kinds.
const (
	// CertST1Fast: a fast-path V-CERT of matching ST1 replies
	// (5f+1 commits, or ≥3f+1 aborts).
	CertST1Fast ShardCertKind = iota + 1
	// CertST2Logged: a V-CERT_Slog of n-f matching ST2 replies.
	CertST2Logged
	// CertConflict: a single abort vote plus the conflicting transaction's
	// commit certificate (abort fast path case 5).
	CertConflict
)

// ShardCert is a durable V-CERT for one shard.
type ShardCert struct {
	ShardID      int32
	Kind         ShardCertKind
	Vote         Vote
	ST1Rs        []ST1Reply
	ST2Rs        []ST2Reply
	Conflict     *DecisionCert
	ConflictMeta *TxMeta
}

// DecisionCert is a C-CERT (Decision=Commit) or A-CERT (Decision=Abort):
// the self-contained, independently verifiable proof of a transaction's
// outcome (paper §4.3). Fast-path commit certificates contain one ST1
// V-CERT per participant shard; slow-path certificates contain the single
// logging-shard ST2 V-CERT; fast-path abort certificates contain one
// aborting shard's V-CERT.
type DecisionCert struct {
	TxID     TxID
	Decision Decision
	Shards   []ShardCert
}

// WritebackRequest broadcasts the decision certificate to all participant
// shards (paper §4.3). Meta lets replicas that never processed ST1 apply
// the writes.
type WritebackRequest struct {
	ClientID uint64
	TxID     TxID
	Decision Decision
	Cert     *DecisionCert
	Meta     *TxMeta
	// TC is the advisory trace context (tracectx.go).
	TC TraceContext
}

// NeverShed reports whether a bounded intake queue must accept msg even
// when full. A writeback carries no request id, so a shed one would get
// no Overloaded reply and its sender would never resend it: the commit
// could end up applied nowhere.
func NeverShed(msg any) bool {
	_, ok := msg.(*WritebackRequest)
	return ok
}

// Overloaded is a replica's explicit load-shed reply: the admission queue
// was over capacity (or the sender's reputation deprioritized it under
// pressure), so the request was dropped without processing. ReqID echoes
// the shed request so the client's reply mux can route it; RetryAfterMicros
// is the replica's backoff hint. The message is unsigned and advisory: a
// forged Overloaded can only delay a client's retry pacing (retries stay
// bounded by the client's own deadline), never change a quorum outcome.
type Overloaded struct {
	ReqID            uint64
	ShardID          int32
	ReplicaID        int32
	RetryAfterMicros uint64
}

// InvokeFB starts the divergent-case fallback (paper §5 step 1). ST2Rs are
// the signed current views gathered from RPR responses; Decision/Tallies
// optionally let replicas that have not yet logged a decision adopt the
// invoking client's (validated) decision first, preserving the invariant
// that ELECT-FB messages carry client-proposed decisions only (Lemma 5).
type InvokeFB struct {
	ReqID    uint64
	ClientID uint64
	TxID     TxID
	Meta     *TxMeta
	ST2Rs    []ST2Reply
	Decision Decision
	Tallies  []VoteTally
	// TC is the advisory trace context (tracectx.go).
	TC TraceContext
}

// ElectFB is a replica's leader-election ballot for a transaction's
// fallback view (paper §5 step 2).
type ElectFB struct {
	TxID      TxID
	ShardID   int32
	ReplicaID int32
	Decision  Decision
	View      uint64 // the view whose leader this ballot elects
	Sig       Signature
}

// Payload returns the signed ballot bytes.
func (e *ElectFB) Payload() []byte {
	b := make([]byte, 0, 64)
	b = append(b, domElectFB...)
	b = append(b, e.TxID[:]...)
	b = appendU32(b, uint32(e.ShardID))
	b = appendU32(b, uint32(e.ReplicaID))
	b = append(b, byte(e.Decision))
	return appendU64(b, e.View)
}

// DecFB is the elected fallback leader's reconciled decision (paper §5
// step 3), justified by 4f+1 ElectFB ballots with matching views.
type DecFB struct {
	TxID     TxID
	ShardID  int32
	LeaderID int32
	Decision Decision
	View     uint64
	Elects   []ElectFB
	Sig      Signature
}

// Payload returns the signed decision bytes.
func (d *DecFB) Payload() []byte {
	b := make([]byte, 0, 64)
	b = append(b, domDecFB...)
	b = append(b, d.TxID[:]...)
	b = appendU32(b, uint32(d.ShardID))
	b = appendU32(b, uint32(d.LeaderID))
	b = append(b, byte(d.Decision))
	return appendU64(b, d.View)
}
