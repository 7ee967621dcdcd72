package types

import (
	"encoding/binary"
	"errors"
)

// Canonical binary encoding.
//
// The encoding is deterministic (field order fixed, lengths explicit) so
// that hashing and signing are stable across nodes. It is deliberately
// hand-rolled rather than gob/json: signatures must cover exact bytes, and
// map iteration or struct-tag drift would silently break certificate
// verification between honest nodes.

// appendU64 appends v in big-endian order.
func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// appendU32 appends v in big-endian order.
func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// appendBytes appends a length-prefixed byte string.
func appendBytes(b, s []byte) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendCanonical appends the timestamp's canonical encoding to b.
func (t Timestamp) AppendCanonical(b []byte) []byte {
	b = appendU64(b, t.Time)
	return appendU64(b, t.ClientID)
}

// AppendCanonical appends the read entry's canonical encoding to b.
func (r ReadEntry) AppendCanonical(b []byte) []byte {
	b = appendString(b, r.Key)
	return r.Version.AppendCanonical(b)
}

// AppendCanonical appends the write entry's canonical encoding to b.
func (w WriteEntry) AppendCanonical(b []byte) []byte {
	b = appendString(b, w.Key)
	return appendBytes(b, w.Value)
}

// AppendCanonical appends the dependency's canonical encoding to b.
func (d Dependency) AppendCanonical(b []byte) []byte {
	b = append(b, d.TxID[:]...)
	return d.Version.AppendCanonical(b)
}

// AppendCanonical appends the transaction metadata's canonical encoding to
// b. TxMeta.ID hashes exactly these bytes.
func (m *TxMeta) AppendCanonical(b []byte) []byte {
	b = m.Timestamp.AppendCanonical(b)
	b = appendU32(b, uint32(len(m.ReadSet)))
	for _, r := range m.ReadSet {
		b = r.AppendCanonical(b)
	}
	b = appendU32(b, uint32(len(m.WriteSet)))
	for _, w := range m.WriteSet {
		b = w.AppendCanonical(b)
	}
	b = appendU32(b, uint32(len(m.Deps)))
	for _, d := range m.Deps {
		b = d.AppendCanonical(b)
	}
	b = appendU32(b, uint32(len(m.Shards)))
	for _, s := range m.Shards {
		b = appendU32(b, uint32(s))
	}
	return b
}

// ErrTruncated reports a short canonical encoding during decode.
var ErrTruncated = errors.New("types: truncated encoding")

// decoder is a cursor over a canonical encoding.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// next consumes a length-prefixed byte string and returns it in place,
// aliasing the input: callers copy it out (bytes, str).
func (d *decoder) next() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = ErrTruncated
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// bytes decodes a length-prefixed byte string into a fresh slice.
func (d *decoder) bytes() []byte {
	v := d.next()
	if d.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// str decodes a length-prefixed string, converting straight from the
// input: one allocation, not a []byte copy and then a string.
func (d *decoder) str() string { return string(d.next()) }

func (d *decoder) ts() Timestamp {
	return Timestamp{Time: d.u64(), ClientID: d.u64()}
}

func (d *decoder) txid() TxID {
	if d.err != nil {
		return TxID{}
	}
	if len(d.b) < 32 {
		d.err = ErrTruncated
		return TxID{}
	}
	var id TxID
	copy(id[:], d.b)
	d.b = d.b[32:]
	return id
}

// DecodeTxMeta parses a canonical TxMeta encoding produced by
// AppendCanonical. It returns the remaining bytes.
func DecodeTxMeta(b []byte) (*TxMeta, []byte, error) {
	d := &decoder{b: b}
	m := &TxMeta{Timestamp: d.ts()}
	nr := int(d.u32())
	if d.err == nil && nr > len(d.b) { // each entry ≥ 20 bytes; cheap sanity bound
		return nil, nil, ErrTruncated
	}
	for i := 0; i < nr && d.err == nil; i++ {
		m.ReadSet = append(m.ReadSet, ReadEntry{Key: d.str(), Version: d.ts()})
	}
	nw := int(d.u32())
	if d.err == nil && nw > len(d.b) {
		return nil, nil, ErrTruncated
	}
	for i := 0; i < nw && d.err == nil; i++ {
		m.WriteSet = append(m.WriteSet, WriteEntry{Key: d.str(), Value: d.bytes()})
	}
	nd := int(d.u32())
	if d.err == nil && nd > len(d.b) {
		return nil, nil, ErrTruncated
	}
	for i := 0; i < nd && d.err == nil; i++ {
		m.Deps = append(m.Deps, Dependency{TxID: d.txid(), Version: d.ts()})
	}
	ns := int(d.u32())
	if d.err == nil && ns > len(d.b) {
		return nil, nil, ErrTruncated
	}
	for i := 0; i < ns && d.err == nil; i++ {
		m.Shards = append(m.Shards, int32(d.u32()))
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return m, d.b, nil
}
