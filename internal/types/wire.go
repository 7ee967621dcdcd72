package types

import (
	"errors"
	"fmt"
)

// Tagged wire encoding for protocol messages.
//
// The transport frames each message as a one-byte MsgType tag followed by
// the message's canonical field encoding, reusing the same deterministic
// append helpers the signature payloads are built from (encode.go). This
// keeps exactly one serialization path in the system: the bytes a replica
// signs and the bytes that cross the wire come from the same codec, and
// nothing is reflect-encoded twice the way the old gob transport did.
//
// Optional pointer fields are encoded as a presence byte (0/1) followed by
// the value. Slices carry a u32 count. All integers are big-endian.
//
// The decoder is defensive: every length is bounds-checked against the
// remaining input, and certificate nesting (an ST1Reply can carry a
// DecisionCert whose ShardCerts carry further ST1Replies) is capped so a
// malicious peer cannot recurse the decoder off the stack.

// ErrWireNesting reports certificate nesting beyond maxWireDepth.
var ErrWireNesting = errors.New("types: wire encoding nested too deep")

// maxWireDepth caps DecisionCert/ST1Reply recursion during decode. Honest
// traffic nests at most a handful of levels (reply -> conflict cert ->
// shard cert -> vote replies); 16 leaves generous headroom.
const maxWireDepth = 16

// EncodeMessage returns the tagged wire encoding of msg. It fails on
// values that are not one of the twelve protocol messages.
func EncodeMessage(msg any) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 128), msg)
}

// AppendMessage appends the tagged wire encoding of msg to b.
func AppendMessage(b []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *ReadRequest:
		b = append(b, byte(MsgRead))
		b = appendU64(b, m.ReqID)
		b = appendU64(b, m.ClientID)
		b = appendString(b, m.Key)
		b = m.Ts.AppendCanonical(b)
		b = append(b, m.ClientKey[:]...)
		b = appendTraceTrailer(b, m.TC)
	case *ReadReply:
		b = append(b, byte(MsgReadReply))
		b = appendU64(b, m.ReqID)
		b = appendString(b, m.Key)
		b = appendU32(b, uint32(m.ShardID))
		b = appendU32(b, uint32(m.ReplicaID))
		b = appendCommittedRead(b, m.Committed)
		b = appendPreparedRead(b, m.Prepared)
		b = append(b, m.MAC[:]...)
	case *AbortRead:
		b = append(b, byte(MsgAbortRead))
		b = appendU64(b, m.ClientID)
		b = m.Ts.AppendCanonical(b)
		b = appendU32(b, uint32(len(m.Keys)))
		for _, k := range m.Keys {
			b = appendString(b, k)
		}
	case *ST1Request:
		b = append(b, byte(MsgST1))
		b = appendU64(b, m.ReqID)
		b = appendU64(b, m.ClientID)
		b = appendTxMetaOpt(b, m.Meta)
		b = appendBool(b, m.Recovery)
		b = appendTraceTrailer(b, m.TC)
	case *ST1Reply:
		b = append(b, byte(MsgST1Reply))
		b = appendST1Reply(b, m)
	case *ST2Request:
		b = append(b, byte(MsgST2))
		b = appendU64(b, m.ReqID)
		b = appendU64(b, m.ClientID)
		b = append(b, m.TxID[:]...)
		b = appendTxMetaOpt(b, m.Meta)
		b = append(b, byte(m.Decision))
		b = appendU32(b, uint32(len(m.Tallies)))
		for i := range m.Tallies {
			b = appendVoteTally(b, &m.Tallies[i])
		}
		b = appendU64(b, m.View)
		b = appendTraceTrailer(b, m.TC)
	case *ST2Reply:
		b = append(b, byte(MsgST2Reply))
		b = appendST2Reply(b, m)
	case *WritebackRequest:
		b = append(b, byte(MsgWriteback))
		b = appendU64(b, m.ClientID)
		b = append(b, m.TxID[:]...)
		b = append(b, byte(m.Decision))
		b = appendDecisionCertOpt(b, m.Cert)
		b = appendTxMetaOpt(b, m.Meta)
		b = appendTraceTrailer(b, m.TC)
	case *InvokeFB:
		b = append(b, byte(MsgInvokeFB))
		b = appendU64(b, m.ReqID)
		b = appendU64(b, m.ClientID)
		b = append(b, m.TxID[:]...)
		b = appendTxMetaOpt(b, m.Meta)
		b = appendU32(b, uint32(len(m.ST2Rs)))
		for i := range m.ST2Rs {
			b = appendST2Reply(b, &m.ST2Rs[i])
		}
		b = append(b, byte(m.Decision))
		b = appendU32(b, uint32(len(m.Tallies)))
		for i := range m.Tallies {
			b = appendVoteTally(b, &m.Tallies[i])
		}
		b = appendTraceTrailer(b, m.TC)
	case *Overloaded:
		b = append(b, byte(MsgOverloaded))
		b = appendU64(b, m.ReqID)
		b = appendU32(b, uint32(m.ShardID))
		b = appendU32(b, uint32(m.ReplicaID))
		b = appendU64(b, m.RetryAfterMicros)
	case *ElectFB:
		b = append(b, byte(MsgElectFB))
		b = appendElectFB(b, m)
	case *DecFB:
		b = append(b, byte(MsgDecFB))
		b = append(b, m.TxID[:]...)
		b = appendU32(b, uint32(m.ShardID))
		b = appendU32(b, uint32(m.LeaderID))
		b = append(b, byte(m.Decision))
		b = appendU64(b, m.View)
		b = appendU32(b, uint32(len(m.Elects)))
		for i := range m.Elects {
			b = appendElectFB(b, &m.Elects[i])
		}
		b = appendSignature(b, &m.Sig)
	default:
		return nil, fmt.Errorf("types: cannot wire-encode %T", msg)
	}
	return b, nil
}

// DecodeMessage parses one tagged message from b, returning the decoded
// message (always a pointer type matching what handlers switch on) and
// the remaining bytes.
func DecodeMessage(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrTruncated
	}
	tag, d := MsgType(b[0]), &decoder{b: b[1:]}
	var msg any
	switch tag {
	case MsgRead:
		m := &ReadRequest{ReqID: d.u64(), ClientID: d.u64(), Key: d.str(), Ts: d.ts()}
		m.ClientKey = d.hash32()
		m.TC = d.traceTrailer()
		msg = m
	case MsgReadReply:
		m := &ReadReply{ReqID: d.u64(), Key: d.str(),
			ShardID: int32(d.u32()), ReplicaID: int32(d.u32())}
		m.Committed = d.committedRead()
		m.Prepared = d.preparedRead()
		m.MAC = d.hash32()
		msg = m
	case MsgAbortRead:
		m := &AbortRead{ClientID: d.u64(), Ts: d.ts()}
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			m.Keys = append(m.Keys, d.str())
		}
		msg = m
	case MsgST1:
		m := &ST1Request{ReqID: d.u64(), ClientID: d.u64(),
			Meta: d.txMetaOpt(), Recovery: d.bool()}
		m.TC = d.traceTrailer()
		msg = m
	case MsgST1Reply:
		msg = d.st1Reply(0)
	case MsgST2:
		m := &ST2Request{ReqID: d.u64(), ClientID: d.u64(), TxID: d.txid()}
		m.Meta = d.txMetaOpt()
		m.Decision = Decision(d.u8())
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			m.Tallies = append(m.Tallies, d.voteTally(0))
		}
		m.View = d.u64()
		m.TC = d.traceTrailer()
		msg = m
	case MsgST2Reply:
		msg = d.st2Reply()
	case MsgWriteback:
		m := &WritebackRequest{ClientID: d.u64(), TxID: d.txid(),
			Decision: Decision(d.u8())}
		m.Cert = d.decisionCertOpt(0)
		m.Meta = d.txMetaOpt()
		m.TC = d.traceTrailer()
		msg = m
	case MsgInvokeFB:
		m := &InvokeFB{ReqID: d.u64(), ClientID: d.u64(), TxID: d.txid()}
		m.Meta = d.txMetaOpt()
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			m.ST2Rs = append(m.ST2Rs, *d.st2Reply())
		}
		m.Decision = Decision(d.u8())
		n = d.count()
		for i := 0; i < n && d.err == nil; i++ {
			m.Tallies = append(m.Tallies, d.voteTally(0))
		}
		m.TC = d.traceTrailer()
		msg = m
	case MsgOverloaded:
		msg = &Overloaded{ReqID: d.u64(), ShardID: int32(d.u32()),
			ReplicaID: int32(d.u32()), RetryAfterMicros: d.u64()}
	case MsgElectFB:
		msg = d.electFB()
	case MsgDecFB:
		m := &DecFB{TxID: d.txid(), ShardID: int32(d.u32()),
			LeaderID: int32(d.u32()), Decision: Decision(d.u8()), View: d.u64()}
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			m.Elects = append(m.Elects, *d.electFB())
		}
		m.Sig = d.signature()
		msg = m
	default:
		return nil, nil, fmt.Errorf("types: unknown wire tag %d", tag)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return msg, d.b, nil
}

// AppendDecisionCert appends the optional-certificate wire encoding
// (presence byte + body) to b — the same bytes a cert occupies inside a
// protocol message. Exported for the durability subsystem, whose WAL
// records and checkpoints reuse the canonical codec.
func AppendDecisionCert(b []byte, c *DecisionCert) []byte {
	return appendDecisionCertOpt(b, c)
}

// DecodeDecisionCert parses an optional DecisionCert produced by
// AppendDecisionCert, returning the remaining bytes.
func DecodeDecisionCert(b []byte) (*DecisionCert, []byte, error) {
	d := &decoder{b: b}
	c := d.decisionCertOpt(0)
	if d.err != nil {
		return nil, nil, d.err
	}
	return c, d.b, nil
}

// --- encode helpers ---

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendSignature writes both forms' fields; a direct signature's nil
// Batch encodes as the zero batched fields, so the bytes do not depend on
// the in-memory layout.
func appendSignature(b []byte, s *Signature) []byte {
	b = appendU32(b, uint32(s.SignerID))
	b = appendBytes(b, s.Direct)
	bp := s.Batch
	if bp == nil {
		bp = &noBatch
	}
	b = append(b, bp.Root[:]...)
	b = appendBytes(b, bp.RootSig)
	b = appendU32(b, uint32(len(bp.Proof)))
	for _, p := range bp.Proof {
		b = append(b, p[:]...)
	}
	return appendU32(b, bp.Index)
}

// noBatch is the all-zero batched form a direct signature encodes.
var noBatch BatchProof

func appendTxMetaOpt(b []byte, m *TxMeta) []byte {
	if m == nil {
		return append(b, 0)
	}
	return m.AppendCanonical(append(b, 1))
}

func appendCommittedRead(b []byte, c *CommittedRead) []byte {
	if c == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendBytes(b, c.Value)
	b = append(b, c.WriterID[:]...)
	b = appendTxMetaOpt(b, c.WriterMeta)
	return appendDecisionCertOpt(b, c.Cert)
}

func appendPreparedRead(b []byte, p *PreparedRead) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendBytes(b, p.Value)
	b = append(b, p.WriterID[:]...)
	return appendTxMetaOpt(b, p.WriterMeta)
}

func appendST1Reply(b []byte, r *ST1Reply) []byte {
	b = appendU64(b, r.ReqID)
	b = append(b, r.TxID[:]...)
	b = appendU32(b, uint32(r.ShardID))
	b = appendU32(b, uint32(r.ReplicaID))
	b = append(b, byte(r.Vote))
	ev := r.Evidence()
	b = appendDecisionCertOpt(b, ev.Conflict)
	b = appendTxMetaOpt(b, ev.ConflictMeta)
	b = appendTxMetaOpt(b, ev.BlockedBy)
	b = append(b, byte(r.RPKind), byte(r.Decision))
	if ev.ST2R == nil {
		b = append(b, 0)
	} else {
		b = appendST2Reply(append(b, 1), ev.ST2R)
	}
	b = appendDecisionCertOpt(b, ev.Cert)
	b = appendTxMetaOpt(b, ev.CertMeta)
	return appendSignature(b, &r.Sig)
}

func appendST2Reply(b []byte, r *ST2Reply) []byte {
	b = appendU64(b, r.ReqID)
	b = append(b, r.TxID[:]...)
	b = appendU32(b, uint32(r.ShardID))
	b = appendU32(b, uint32(r.ReplicaID))
	b = append(b, byte(r.Decision))
	b = appendU64(b, r.ViewDecision)
	b = appendU64(b, r.ViewCurrent)
	return appendSignature(b, &r.Sig)
}

func appendVoteTally(b []byte, t *VoteTally) []byte {
	b = append(b, t.TxID[:]...)
	b = appendU32(b, uint32(t.ShardID))
	b = append(b, byte(t.Vote))
	b = appendU32(b, uint32(len(t.Replies)))
	for i := range t.Replies {
		b = appendST1Reply(b, &t.Replies[i])
	}
	b = appendDecisionCertOpt(b, t.Conflict)
	return appendTxMetaOpt(b, t.ConflictMeta)
}

func appendShardCert(b []byte, c *ShardCert) []byte {
	b = appendU32(b, uint32(c.ShardID))
	b = append(b, byte(c.Kind), byte(c.Vote))
	b = appendU32(b, uint32(len(c.ST1Rs)))
	for i := range c.ST1Rs {
		b = appendST1Reply(b, &c.ST1Rs[i])
	}
	b = appendU32(b, uint32(len(c.ST2Rs)))
	for i := range c.ST2Rs {
		b = appendST2Reply(b, &c.ST2Rs[i])
	}
	b = appendDecisionCertOpt(b, c.Conflict)
	return appendTxMetaOpt(b, c.ConflictMeta)
}

func appendDecisionCertOpt(b []byte, c *DecisionCert) []byte {
	if c == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = append(b, c.TxID[:]...)
	b = append(b, byte(c.Decision))
	b = appendU32(b, uint32(len(c.Shards)))
	for i := range c.Shards {
		b = appendShardCert(b, &c.Shards[i])
	}
	return b
}

func appendElectFB(b []byte, e *ElectFB) []byte {
	b = append(b, e.TxID[:]...)
	b = appendU32(b, uint32(e.ShardID))
	b = appendU32(b, uint32(e.ReplicaID))
	b = append(b, byte(e.Decision))
	b = appendU64(b, e.View)
	return appendSignature(b, &e.Sig)
}

// --- decode helpers ---

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.err = ErrTruncated
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

// count reads a u32 element count and sanity-bounds it against the
// remaining input (every element occupies at least one byte), so a
// hostile length prefix cannot drive a near-infinite decode loop.
func (d *decoder) count() int {
	n := int(d.u32())
	if d.err == nil && n > len(d.b) {
		d.err = ErrTruncated
		return 0
	}
	return n
}

func (d *decoder) hash32() [32]byte { return [32]byte(d.txid()) }

// signature decodes a Signature, leaving Batch nil when every batched
// field is zero, the encoding of a direct signature.
func (d *decoder) signature() Signature {
	s := Signature{SignerID: int32(d.u32())}
	s.Direct = d.bytes()
	root := d.hash32()
	rootSig := d.bytes()
	var proof [][32]byte
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		proof = append(proof, d.hash32())
	}
	index := d.u32()
	if root != ([32]byte{}) || len(rootSig) > 0 || len(proof) > 0 || index != 0 {
		s.Batch = &BatchProof{Root: root, RootSig: rootSig, Proof: proof, Index: index}
	}
	return s
}

func (d *decoder) txMetaOpt() *TxMeta {
	if d.u8() == 0 || d.err != nil {
		return nil
	}
	m, rest, err := DecodeTxMeta(d.b)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = rest
	return m
}

func (d *decoder) committedRead() *CommittedRead {
	if d.u8() == 0 || d.err != nil {
		return nil
	}
	c := &CommittedRead{Value: d.bytes(), WriterID: d.txid()}
	c.WriterMeta = d.txMetaOpt()
	c.Cert = d.decisionCertOpt(0)
	return c
}

func (d *decoder) preparedRead() *PreparedRead {
	if d.u8() == 0 || d.err != nil {
		return nil
	}
	return &PreparedRead{Value: d.bytes(), WriterID: d.txid(), WriterMeta: d.txMetaOpt()}
}

func (d *decoder) st1Reply(depth int) *ST1Reply {
	r := &ST1Reply{ReqID: d.u64(), TxID: d.txid(),
		ShardID: int32(d.u32()), ReplicaID: int32(d.u32()), Vote: Vote(d.u8())}
	var ev ST1Evidence
	ev.Conflict = d.decisionCertOpt(depth)
	ev.ConflictMeta = d.txMetaOpt()
	ev.BlockedBy = d.txMetaOpt()
	r.RPKind = RPKind(d.u8())
	r.Decision = Decision(d.u8())
	if d.u8() != 0 && d.err == nil {
		ev.ST2R = d.st2Reply()
	}
	ev.Cert = d.decisionCertOpt(depth)
	ev.CertMeta = d.txMetaOpt()
	if !ev.isZero() {
		r.Ev = &ev
	}
	r.Sig = d.signature()
	return r
}

func (d *decoder) st2Reply() *ST2Reply {
	return &ST2Reply{ReqID: d.u64(), TxID: d.txid(),
		ShardID: int32(d.u32()), ReplicaID: int32(d.u32()),
		Decision: Decision(d.u8()), ViewDecision: d.u64(), ViewCurrent: d.u64(),
		Sig: d.signature()}
}

func (d *decoder) voteTally(depth int) VoteTally {
	t := VoteTally{TxID: d.txid(), ShardID: int32(d.u32()), Vote: Vote(d.u8())}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		t.Replies = append(t.Replies, *d.st1Reply(depth))
	}
	t.Conflict = d.decisionCertOpt(depth)
	t.ConflictMeta = d.txMetaOpt()
	return t
}

func (d *decoder) shardCert(depth int) ShardCert {
	c := ShardCert{ShardID: int32(d.u32()), Kind: ShardCertKind(d.u8()), Vote: Vote(d.u8())}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		c.ST1Rs = append(c.ST1Rs, *d.st1Reply(depth))
	}
	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		c.ST2Rs = append(c.ST2Rs, *d.st2Reply())
	}
	c.Conflict = d.decisionCertOpt(depth)
	c.ConflictMeta = d.txMetaOpt()
	return c
}

func (d *decoder) decisionCertOpt(depth int) *DecisionCert {
	if d.u8() == 0 || d.err != nil {
		return nil
	}
	if depth >= maxWireDepth {
		d.err = ErrWireNesting
		return nil
	}
	c := &DecisionCert{TxID: d.txid(), Decision: Decision(d.u8())}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		c.Shards = append(c.Shards, d.shardCert(depth+1))
	}
	return c
}

func (d *decoder) electFB() *ElectFB {
	return &ElectFB{TxID: d.txid(), ShardID: int32(d.u32()),
		ReplicaID: int32(d.u32()), Decision: Decision(d.u8()), View: d.u64(),
		Sig: d.signature()}
}
