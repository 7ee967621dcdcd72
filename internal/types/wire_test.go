package types

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// wireRand builds pseudo-random but deterministic protocol values so the
// round-trip tests cover populated optional fields, nested certificates
// and batched signatures.
type wireRand struct{ r *rand.Rand }

func newWireRand(seed int64) *wireRand {
	return &wireRand{r: rand.New(rand.NewSource(seed))}
}

func (w *wireRand) bytes(n int) []byte {
	b := make([]byte, 1+w.r.Intn(n))
	w.r.Read(b)
	return b
}

func (w *wireRand) txid() TxID {
	var id TxID
	w.r.Read(id[:])
	return id
}

func (w *wireRand) hash() [32]byte { return [32]byte(w.txid()) }

func (w *wireRand) ts() Timestamp {
	return Timestamp{Time: w.r.Uint64(), ClientID: w.r.Uint64()}
}

func (w *wireRand) sig(batched bool) Signature {
	s := Signature{SignerID: int32(w.r.Intn(64))}
	if !batched {
		s.Direct = w.bytes(64)
		return s
	}
	s.Batch = &BatchProof{}
	s.Batch.Root = w.hash()
	s.Batch.RootSig = w.bytes(64)
	s.Batch.Proof = [][32]byte{w.hash(), w.hash()}
	s.Batch.Index = w.r.Uint32()
	return s
}

func (w *wireRand) meta() *TxMeta {
	return &TxMeta{
		Timestamp: w.ts(),
		ReadSet:   []ReadEntry{{Key: "k1", Version: w.ts()}, {Key: "k2", Version: w.ts()}},
		WriteSet:  []WriteEntry{{Key: "k3", Value: w.bytes(32)}},
		Deps:      []Dependency{{TxID: w.txid(), Version: w.ts()}},
		Shards:    []int32{0, int32(w.r.Intn(8))},
	}
}

func (w *wireRand) st1Reply() ST1Reply {
	return ST1Reply{
		ReqID: w.r.Uint64(), TxID: w.txid(),
		ShardID: int32(w.r.Intn(8)), ReplicaID: int32(w.r.Intn(6)),
		Vote: VoteCommit, Ev: &ST1Evidence{BlockedBy: w.meta()}, Sig: w.sig(true),
	}
}

func (w *wireRand) st2Reply() ST2Reply {
	return ST2Reply{
		ReqID: w.r.Uint64(), TxID: w.txid(),
		ShardID: int32(w.r.Intn(8)), ReplicaID: int32(w.r.Intn(6)),
		Decision: DecisionCommit, ViewDecision: w.r.Uint64() % 4,
		ViewCurrent: w.r.Uint64() % 4, Sig: w.sig(false),
	}
}

func (w *wireRand) cert() *DecisionCert {
	return &DecisionCert{
		TxID: w.txid(), Decision: DecisionCommit,
		Shards: []ShardCert{{
			ShardID: 1, Kind: CertST1Fast, Vote: VoteCommit,
			ST1Rs: []ST1Reply{w.st1Reply()},
		}, {
			ShardID: 2, Kind: CertST2Logged, Vote: VoteCommit,
			ST2Rs: []ST2Reply{w.st2Reply(), w.st2Reply()},
		}},
	}
}

func (w *wireRand) tally() VoteTally {
	return VoteTally{
		TxID: w.txid(), ShardID: 3, Vote: VoteAbort,
		Replies:  []ST1Reply{w.st1Reply(), w.st1Reply()},
		Conflict: w.cert(), ConflictMeta: w.meta(),
	}
}

// wireMessages returns one populated instance of every protocol message.
func wireMessages(seed int64) []any {
	w := newWireRand(seed)
	st1r := w.st1Reply()
	st1r.Ev.Conflict = w.cert()
	st1r.Ev.ConflictMeta = w.meta()
	st1r.RPKind = RPDecision
	st1r.Decision = DecisionCommit
	st2r := w.st2Reply()
	st1r.Ev.ST2R = &st2r
	st1r.Ev.Cert = w.cert()
	st1r.Ev.CertMeta = w.meta()
	return []any{
		&ReadRequest{ReqID: w.r.Uint64(), ClientID: w.r.Uint64(), Key: "balance", Ts: w.ts(),
			ClientKey: w.hash(), TC: TraceContext{TraceID: w.r.Uint64(), Sampled: true}},
		&ReadReply{
			ReqID: w.r.Uint64(), Key: "balance", ShardID: 2, ReplicaID: 4,
			Committed: &CommittedRead{Value: w.bytes(64), WriterID: w.txid(), WriterMeta: w.meta(), Cert: w.cert()},
			Prepared:  &PreparedRead{Value: w.bytes(64), WriterID: w.txid(), WriterMeta: w.meta()},
			MAC:       w.hash(),
		},
		&AbortRead{ClientID: w.r.Uint64(), Ts: w.ts(), Keys: []string{"a", "b", "c"}},
		&ST1Request{ReqID: w.r.Uint64(), ClientID: w.r.Uint64(), Meta: w.meta(), Recovery: true,
			TC: TraceContext{TraceID: w.r.Uint64(), Sampled: true}},
		&st1r,
		&ST2Request{
			ReqID: w.r.Uint64(), ClientID: w.r.Uint64(), TxID: w.txid(),
			Meta: w.meta(), Decision: DecisionCommit,
			Tallies: []VoteTally{w.tally(), w.tally()}, View: 3,
			TC: TraceContext{TraceID: w.r.Uint64(), Sampled: true},
		},
		&st2r,
		&WritebackRequest{
			ClientID: w.r.Uint64(), TxID: w.txid(), Decision: DecisionAbort,
			Cert: w.cert(), Meta: w.meta(),
			TC: TraceContext{TraceID: w.r.Uint64(), Sampled: true},
		},
		&InvokeFB{
			ReqID: w.r.Uint64(), ClientID: w.r.Uint64(), TxID: w.txid(),
			Meta: w.meta(), ST2Rs: []ST2Reply{w.st2Reply()},
			Decision: DecisionCommit, Tallies: []VoteTally{w.tally()},
			TC: TraceContext{TraceID: w.r.Uint64(), Sampled: true},
		},
		&Overloaded{ReqID: w.r.Uint64(), ShardID: 2, ReplicaID: 5,
			RetryAfterMicros: w.r.Uint64()},
		&ElectFB{TxID: w.txid(), ShardID: 1, ReplicaID: 2, Decision: DecisionCommit,
			View: 2, Sig: w.sig(false)},
		&DecFB{TxID: w.txid(), ShardID: 1, LeaderID: 3, Decision: DecisionAbort,
			View: 2, Elects: []ElectFB{
				{TxID: w.txid(), ShardID: 1, ReplicaID: 0, View: 2, Sig: w.sig(false)},
				{TxID: w.txid(), ShardID: 1, ReplicaID: 4, View: 2, Sig: w.sig(true)},
			}, Sig: w.sig(false)},
	}
}

// TestWireRoundTripAllMessages encodes every protocol message, decodes it,
// and re-encodes the result: a canonical codec must reproduce the exact
// original bytes, which also proves field-level equality.
func TestWireRoundTripAllMessages(t *testing.T) {
	msgs := wireMessages(7)
	if len(msgs) != 12 {
		t.Fatalf("expected all 12 protocol messages, have %d", len(msgs))
	}
	for _, msg := range msgs {
		enc, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		dec, rest, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%T: %d trailing bytes after decode", msg, len(rest))
		}
		re, err := EncodeMessage(dec)
		if err != nil {
			t.Fatalf("%T: re-encode: %v", msg, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("%T: decode(encode(m)) re-encodes differently\n  enc %x\n  re  %x", msg, enc, re)
		}
	}
}

// TestWireRoundTripSparseMessages covers the all-optionals-nil shapes.
func TestWireRoundTripSparseMessages(t *testing.T) {
	for _, msg := range []any{
		&ReadReply{ReqID: 1, Key: "k", ShardID: 0, ReplicaID: 1},
		&ST1Request{ReqID: 2, ClientID: 3},
		&ST1Reply{ReqID: 4, Vote: VoteAbort},
		&ST2Request{ReqID: 5, ClientID: 6, Decision: DecisionAbort},
		&WritebackRequest{ClientID: 7, Decision: DecisionCommit},
		&InvokeFB{ReqID: 8, ClientID: 9},
		&DecFB{View: 1},
		&AbortRead{ClientID: 10},
		&Overloaded{ReqID: 11},
	} {
		enc, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		dec, rest, err := DecodeMessage(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%T: decode: %v (rest %d)", msg, err, len(rest))
		}
		re, _ := EncodeMessage(dec)
		if !bytes.Equal(enc, re) {
			t.Fatalf("%T: sparse round trip mismatch", msg)
		}
	}
}

func TestWireDecodeFieldFidelity(t *testing.T) {
	in := &ReadRequest{ReqID: 42, ClientID: 99, Key: "k", Ts: Timestamp{Time: 7, ClientID: 99}}
	enc, _ := EncodeMessage(in)
	dec, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := dec.(*ReadRequest)
	if !ok {
		t.Fatalf("decoded %T", dec)
	}
	if *out != *in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestWireRejectsUnknownAndTruncated(t *testing.T) {
	if _, err := EncodeMessage("not a protocol message"); err == nil {
		t.Fatal("encoded a non-protocol value")
	}
	if _, _, err := DecodeMessage(nil); err == nil {
		t.Fatal("decoded empty input")
	}
	if _, _, err := DecodeMessage([]byte{0xEE}); err == nil {
		t.Fatal("decoded unknown tag")
	}
	enc, _ := EncodeMessage(wireMessages(3)[1]) // ReadReply, deeply nested
	for _, cut := range []int{1, 2, len(enc) / 2, len(enc) - 1} {
		if _, _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("decoded truncated input (cut %d)", cut)
		}
	}
}

// TestWireDecodeDepthBounded feeds a frame whose certificate nesting
// exceeds maxWireDepth and expects ErrWireNesting instead of a stack
// overflow.
func TestWireDecodeDepthBounded(t *testing.T) {
	// Build an ST1Reply whose Conflict cert holds an ST1Reply whose
	// Conflict cert holds ... deeper than the decoder allows.
	inner := ST1Reply{Vote: VoteAbort}
	for i := 0; i < maxWireDepth+2; i++ {
		inner = ST1Reply{
			Vote: VoteAbort,
			Ev: &ST1Evidence{Conflict: &DecisionCert{Decision: DecisionAbort, Shards: []ShardCert{
				{Kind: CertConflict, Vote: VoteAbort, ST1Rs: []ST1Reply{inner}},
			}}},
		}
	}
	enc, err := EncodeMessage(&inner)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = DecodeMessage(enc)
	if err != ErrWireNesting {
		t.Fatalf("want ErrWireNesting, got %v", err)
	}
}

// traceCarriers returns one instance per message kind that carries a
// TraceContext, stamped with tc.
func traceCarriers(seed int64, tc TraceContext) []any {
	w := newWireRand(seed)
	return []any{
		&ReadRequest{ReqID: w.r.Uint64(), ClientID: 3, Key: "k", Ts: w.ts(), TC: tc},
		&ST1Request{ReqID: w.r.Uint64(), ClientID: 3, Meta: w.meta(), TC: tc},
		&ST2Request{ReqID: w.r.Uint64(), ClientID: 3, TxID: w.txid(), Meta: w.meta(),
			Decision: DecisionCommit, Tallies: []VoteTally{w.tally()}, TC: tc},
		&WritebackRequest{ClientID: 3, TxID: w.txid(), Decision: DecisionCommit,
			Cert: w.cert(), Meta: w.meta(), TC: tc},
		&InvokeFB{ReqID: w.r.Uint64(), ClientID: 3, TxID: w.txid(), Meta: w.meta(), TC: tc},
	}
}

// clearTC zeroes the carrier's trace context in place.
func clearTC(msg any) {
	switch m := msg.(type) {
	case *ReadRequest:
		m.TC = TraceContext{}
	case *ST1Request:
		m.TC = TraceContext{}
	case *ST2Request:
		m.TC = TraceContext{}
	case *WritebackRequest:
		m.TC = TraceContext{}
	case *InvokeFB:
		m.TC = TraceContext{}
	}
}

// TestWireTraceContextRoundTrip proves a sampled trace context survives
// encode/decode on every carrier message kind, field-exact.
func TestWireTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xDEADBEEFCAFE0123, Sampled: true}
	for _, msg := range traceCarriers(21, tc) {
		enc, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		dec, rest, err := DecodeMessage(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%T: decode: %v (rest %d)", msg, err, len(rest))
		}
		if got := TraceContextOf(dec); got != tc {
			t.Fatalf("%T: trace context %+v, want %+v", msg, got, tc)
		}
		re, err := EncodeMessage(dec)
		if err != nil || !bytes.Equal(enc, re) {
			t.Fatalf("%T: traced message re-encodes differently (%v)", msg, err)
		}
	}
}

// TestWireUnsampledTraceContextUnchangedBytes proves the common path pays
// zero wire bytes for tracing: an unsampled context — even with a non-zero
// trace id — encodes to exactly the bytes of a message with no context at
// all, and decodes back to the zero context.
func TestWireUnsampledTraceContextUnchangedBytes(t *testing.T) {
	unsampled := traceCarriers(33, TraceContext{TraceID: 77, Sampled: false})
	bare := traceCarriers(33, TraceContext{})
	for i, msg := range unsampled {
		encUnsampled, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		encBare, err := EncodeMessage(bare[i])
		if err != nil {
			t.Fatalf("%T: encode bare: %v", msg, err)
		}
		if !bytes.Equal(encUnsampled, encBare) {
			t.Fatalf("%T: unsampled trace context changed the frame bytes", msg)
		}
		dec, rest, err := DecodeMessage(encUnsampled)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%T: decode: %v (rest %d)", msg, err, len(rest))
		}
		if got := TraceContextOf(dec); got != (TraceContext{}) {
			t.Fatalf("%T: decoded context %+v, want zero", msg, got)
		}
		// The sampled form of the same message differs only by the trailer.
		clearTC(msg)
		reBare, _ := EncodeMessage(msg)
		if !bytes.Equal(reBare, encBare) {
			t.Fatalf("%T: clearing the context should reproduce the bare bytes", msg)
		}
	}
}

// TestWireSignatureBytesPinned pins the signature encoding to fixed
// bytes, whatever the in-memory layout: a direct signature writes zero
// batched fields, and both forms decode back to their fields, with a nil
// Batch for the direct one.
func TestWireSignatureBytesPinned(t *testing.T) {
	cases := []struct {
		sig  Signature
		want string
	}{
		{Signature{SignerID: 3, Direct: []byte{1, 2, 3, 4}},
			"0000000300000004010203040000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
		{Signature{SignerID: 5, Batch: &BatchProof{Root: [32]byte{9, 8, 7}, RootSig: []byte{6, 5}, Proof: [][32]byte{{1}, {2, 2}}, Index: 7}},
			"00000005000000000908070000000000000000000000000000000000000000000000000000000000000000020605000000020100000000000000000000000000000000000000000000000000000000000000020200000000000000000000000000000000000000000000000000000000000000000007"},
	}
	for _, c := range cases {
		enc := appendSignature(nil, &c.sig)
		if got := hex.EncodeToString(enc); got != c.want {
			t.Fatalf("signature %+v encodes to\n%s\nwant\n%s", c.sig, got, c.want)
		}
		d := &decoder{b: enc}
		got := d.signature()
		if d.err != nil || len(d.b) != 0 || (got.Batch == nil) != (c.sig.Batch == nil) {
			t.Fatalf("decoded %+v (err %v, %d bytes left), want %+v", got, d.err, len(d.b), c.sig)
		}
		if got.Batch != nil && !reflect.DeepEqual(*got.Batch, *c.sig.Batch) {
			t.Fatalf("decoded batch %+v, want %+v", *got.Batch, *c.sig.Batch)
		}
	}
}

// BenchmarkWireCodec measures the canonical wire codec against gob (the
// transport's previous wire format) on a representative ST2Request — the
// serialization pass the new framed transport removed.
func BenchmarkWireCodec(b *testing.B) {
	w := newWireRand(11)
	msg := &ST2Request{
		ReqID: 1, ClientID: 2, TxID: w.txid(), Meta: w.meta(),
		Decision: DecisionCommit, Tallies: []VoteTally{w.tally()}, View: 0,
	}
	b.Run("canonical/encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 4096)
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			var err error
			buf, err = AppendMessage(buf, msg)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	enc, _ := EncodeMessage(msg)
	b.Run("canonical/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeMessage(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob/encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := enc.Encode(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob/decode", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		for i := 0; i < b.N; i++ {
			var out ST2Request
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pinMeta, pinVote and pinCert build the fixed values the ST1Reply byte
// pins encode.
func pinMeta(n byte) *TxMeta {
	return &TxMeta{Timestamp: Timestamp{Time: uint64(n), ClientID: 2},
		ReadSet:  []ReadEntry{{Key: "r", Version: Timestamp{Time: 1, ClientID: 1}}},
		WriteSet: []WriteEntry{{Key: "k", Value: []byte{n}}}, Shards: []int32{0}}
}

func pinVote() ST1Reply {
	return ST1Reply{ReqID: 7, TxID: TxID{1, 2, 3}, ShardID: 1, ReplicaID: 4, Vote: VoteCommit,
		Sig: Signature{SignerID: 10, Direct: []byte{0xAA, 0xBB}}}
}

func pinCert() *DecisionCert {
	return &DecisionCert{TxID: TxID{9}, Decision: DecisionCommit,
		Shards: []ShardCert{{ShardID: 1, Kind: CertST1Fast, Vote: VoteCommit, ST1Rs: []ST1Reply{pinVote()}}}}
}

// TestWireST1ReplyBytesPinned pins ST1Reply encodings to the bytes the
// encoder produced before the optional fields moved behind Ev: the
// in-memory layout must not change the wire. Each decodes back to a
// reply that re-encodes identically, with Ev nil exactly for the plain
// vote.
func TestWireST1ReplyBytesPinned(t *testing.T) {
	vote := pinVote()
	conflict := pinVote()
	conflict.Vote = VoteAbort
	conflict.Ev = &ST1Evidence{Conflict: pinCert(), ConflictMeta: pinMeta(5), BlockedBy: pinMeta(6)}
	rpCert := pinVote()
	rpCert.RPKind = RPCert
	rpCert.Ev = &ST1Evidence{Cert: pinCert(), CertMeta: pinMeta(8)}
	rpDec := pinVote()
	rpDec.RPKind = RPDecision
	rpDec.Decision = DecisionAbort
	rpDec.Ev = &ST1Evidence{ST2R: &ST2Reply{ReqID: 3, TxID: TxID{1, 2, 3}, ShardID: 1, ReplicaID: 4,
		Decision: DecisionAbort, ViewDecision: 1, ViewCurrent: 2,
		Sig: Signature{SignerID: 10, Batch: &BatchProof{Root: [32]byte{4}, RootSig: []byte{7}, Proof: [][32]byte{{5}}, Index: 1}}}}
	cases := []struct {
		name string
		r    ST1Reply
		want string
	}{
		{"plain vote", vote,
			"040000000000000007010203000000000000000000000000000000000000000000000000000000000000000001000000" +
				"040100000000000000000000000a00000002aabb00000000000000000000000000000000000000000000000000000000" +
				"00000000000000000000000000000000"},
		{"conflict abort", conflict,
			"040000000000000007010203000000000000000000000000000000000000000000000000000000000000000001000000" +
				"040201090000000000000000000000000000000000000000000000000000000000000001000000010000000101010000" +
				"000100000000000000070102030000000000000000000000000000000000000000000000000000000000000000010000" +
				"00040100000000000000000000000a00000002aabb000000000000000000000000000000000000000000000000000000" +
				"000000000000000000000000000000000000000000000001000000000000000500000000000000020000000100000001" +
				"720000000000000001000000000000000100000001000000016b00000001050000000000000001000000000100000000" +
				"0000000600000000000000020000000100000001720000000000000001000000000000000100000001000000016b0000" +
				"00010600000000000000010000000000000000000000000a00000002aabb000000000000000000000000000000000000" +
				"0000000000000000000000000000000000000000000000000000"},
		{"rp certificate", rpCert,
			"040000000000000007010203000000000000000000000000000000000000000000000000000000000000000001000000" +
				"040100000003000001090000000000000000000000000000000000000000000000000000000000000001000000010000" +
				"000101010000000100000000000000070102030000000000000000000000000000000000000000000000000000000000" +
				"00000001000000040100000000000000000000000a00000002aabb000000000000000000000000000000000000000000" +
				"000000000000000000000000000000000000000000000000000000000001000000000000000800000000000000020000" +
				"000100000001720000000000000001000000000000000100000001000000016b00000001080000000000000001000000" +
				"000000000a00000002aabb00000000000000000000000000000000000000000000000000000000000000000000000000" +
				"00000000000000"},
		{"rp decision", rpDec,
			"040000000000000007010203000000000000000000000000000000000000000000000000000000000000000001000000" +
				"040100000002020100000000000000030102030000000000000000000000000000000000000000000000000000000000" +
				"000000010000000402000000000000000100000000000000020000000a00000000040000000000000000000000000000" +
				"000000000000000000000000000000000000000001070000000105000000000000000000000000000000000000000000" +
				"000000000000000000000000000100000000000a00000002aabb00000000000000000000000000000000000000000000" +
				"00000000000000000000000000000000000000000000"},
	}
	for _, c := range cases {
		enc, err := EncodeMessage(&c.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(enc); got != c.want {
			t.Fatalf("%s encodes to\n%s\nwant\n%s", c.name, got, c.want)
		}
		dec, rest, err := DecodeMessage(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v (%d bytes left)", c.name, err, len(rest))
		}
		r := dec.(*ST1Reply)
		if (r.Ev == nil) != (c.r.Ev == nil) {
			t.Fatalf("%s: decoded Ev %v, want %v", c.name, r.Ev, c.r.Ev)
		}
		if re, _ := EncodeMessage(r); !bytes.Equal(re, enc) {
			t.Fatalf("%s: decoded reply re-encodes differently", c.name)
		}
	}
}

// TestWireReadBytesPinned pins the read messages' encodings: a
// ReadRequest ends with the client's 32-byte exchange key, and a
// ReadReply carries each branch's writer id after its value and a
// 32-byte MAC where a signature used to be.
func TestWireReadBytesPinned(t *testing.T) {
	zeros := func(n int) string { return strings.Repeat("00", n) }
	req := &ReadRequest{ReqID: 1, ClientID: 2, Key: "k", Ts: Timestamp{Time: 3, ClientID: 4}, ClientKey: [32]byte{0xC1, 0xC2}}
	rep := &ReadReply{ReqID: 5, Key: "k", ShardID: 1, ReplicaID: 2,
		Committed: &CommittedRead{Value: []byte{0x76}, WriterID: TxID{0xD1}},
		Prepared:  &PreparedRead{Value: []byte{0x77}, WriterID: TxID{0xD2}, WriterMeta: &TxMeta{Timestamp: Timestamp{Time: 6, ClientID: 7}}},
		MAC:       [32]byte{0xE1, 0xE2}}
	cases := []struct {
		msg  any
		want string
	}{
		{req, "01" + "0000000000000001" + "0000000000000002" + "000000016b" +
			"0000000000000003" + "0000000000000004" + "c1c2" + zeros(30)},
		{rep, "02" + "0000000000000005" + "000000016b" + "00000001" + "00000002" +
			"01" + "0000000176" + "d1" + zeros(31) + "00" + "00" + // committed: value, writer id, no meta, no cert
			"01" + "0000000177" + "d2" + zeros(31) + // prepared: value, writer id
			"01" + "0000000000000006" + "0000000000000007" + zeros(16) + // writer meta
			"e1e2" + zeros(30)},
	}
	for _, c := range cases {
		enc, err := EncodeMessage(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(enc); got != c.want {
			t.Fatalf("%T encodes to\n%s\nwant\n%s", c.msg, got, c.want)
		}
		dec, rest, err := DecodeMessage(enc)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(dec, c.msg) {
			t.Fatalf("%T decodes to %+v (err %v, %d bytes left), want %+v", c.msg, dec, err, len(rest), c.msg)
		}
	}
}

// TestST1ReplySize pins the in-memory size of a vote, which certificates
// hold by the thousand: the optional evidence lives behind one pointer.
func TestST1ReplySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(ST1Reply{}); got != 104 {
		t.Fatalf("ST1Reply is %d bytes, want 104", got)
	}
}

// fastCommitWriteback is a writeback carrying a fast-path commit
// certificate of 6 ST1 replies (5f+1 at f=1) with direct signatures —
// the certificate shape a replica keeps for every committed transaction.
func fastCommitWriteback(w *wireRand) *WritebackRequest {
	sc := ShardCert{ShardID: 0, Kind: CertST1Fast, Vote: VoteCommit}
	id := w.txid()
	for i := 0; i < 6; i++ {
		sc.ST1Rs = append(sc.ST1Rs, ST1Reply{ReqID: w.r.Uint64(), TxID: id,
			ReplicaID: int32(i), Vote: VoteCommit, Sig: w.sig(false)})
	}
	return &WritebackRequest{ClientID: 7, TxID: id, Decision: DecisionCommit,
		Cert: &DecisionCert{TxID: id, Decision: DecisionCommit, Shards: []ShardCert{sc}}}
}

// TestWireDecodedCertSlicesExact pins the decode-side heap diet: a
// decoded certificate's slices are presized to their wire count, so a
// 6-reply fast-path certificate keeps exactly 6 replies of backing
// array (append growth would leave capacity 8).
func TestWireDecodedCertSlicesExact(t *testing.T) {
	enc, err := EncodeMessage(fastCommitWriteback(newWireRand(5)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	cert := msg.(*WritebackRequest).Cert
	if len(cert.Shards) != 1 || cap(cert.Shards) != 1 {
		t.Fatalf("Shards len %d cap %d, want 1 and 1", len(cert.Shards), cap(cert.Shards))
	}
	if rs := cert.Shards[0].ST1Rs; len(rs) != 6 || cap(rs) != len(rs) {
		t.Fatalf("ST1Rs len %d cap %d, want 6 and 6", len(rs), cap(rs))
	}
}

// TestWireHostileCountBoundedAlloc patches the ST1-reply count of a
// fast-path certificate to values the frame cannot hold. Decoding must
// fail with ErrTruncated after allocating no more than a small multiple
// of the frame: a slice presized to an unchecked count would allocate
// the count times the reply size.
func TestWireHostileCountBoundedAlloc(t *testing.T) {
	enc, err := EncodeMessage(fastCommitWriteback(newWireRand(6)))
	if err != nil {
		t.Fatal(err)
	}
	// tag, client id, tx id, decision; cert presence, tx id, decision,
	// shard count; shard id, kind, vote — then the ST1-reply count.
	const countAt = 1 + 8 + 32 + 1 + 1 + 32 + 1 + 4 + 4 + 1 + 1
	if got := binary.BigEndian.Uint32(enc[countAt:]); got != 6 {
		t.Fatalf("count field at %d reads %d, want 6: frame layout changed", countAt, got)
	}
	rest := len(enc) - (countAt + 4)
	for _, count := range []uint32{1<<31 - 1, uint32(rest)} {
		frame := bytes.Clone(enc)
		binary.BigEndian.PutUint32(frame[countAt:], count)
		if _, _, err := DecodeMessage(frame); err != ErrTruncated {
			t.Fatalf("count %d: err %v, want ErrTruncated", count, err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			DecodeMessage(frame)
		}
		runtime.ReadMemStats(&after)
		perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(2 * len(frame)); perDecode > limit {
			t.Fatalf("count %d: decode allocated %d B for a %d B frame (limit %d)",
				count, perDecode, len(frame), limit)
		}
	}
}
