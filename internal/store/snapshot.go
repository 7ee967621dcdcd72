package store

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// Checkpoint snapshot codec.
//
// Snapshot serializes the store's durable state — version chains
// (committed and prepared), reader records, the transaction table with
// metadata and certificates, and the restart RTS floor — in the same
// deterministic style as the canonical wire codec (fixed field order,
// explicit lengths, big-endian integers). RTS entries are deliberately
// absent: they protect ongoing reads, which do not survive a restart;
// the rtsFloor conservatively stands in for them.
//
// Restore is the inverse and requires an empty store. It returns the
// undecoded remainder so callers (the replica) can append their own
// section after the store's, plus the maximum timestamp observed, which
// feeds the restart RTS floor.

// snapVersion is the snapshot format version byte.
const snapVersion = 1

// Snapshot appends the store's durable state to b. It takes the global
// lock exclusively, so the captured state is a consistent cut.
func (s *Store) Snapshot(b []byte) []byte {
	s.global.Lock()
	defer s.global.Unlock()
	b = append(b, snapVersion)
	b = s.rtsFloor.AppendCanonical(b)

	// Version chains and reader lists name records by id. A record
	// without a certificate would hash its metadata for that (recID), with
	// every read and prepare waiting on the lock, so take the ids from the
	// table instead.
	ids := make(map[*TxRecord]types.TxID)
	idOf := func(rec *TxRecord) types.TxID {
		if id, ok := ids[rec]; ok {
			return id
		}
		return recID(rec)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.txns)))
	for id, rec := range s.txns {
		if rec.Cert == nil {
			ids[rec] = id
		}
		b = append(b, id[:]...)
		b = append(b, byte(rec.Status))
		b = snapMetaOpt(b, rec.Meta)
		b = types.AppendDecisionCert(b, rec.Cert)
	}

	nKeys := 0
	for si := range s.stripes {
		nKeys += len(s.stripes[si].keys)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(nKeys))
	for si := range s.stripes {
		for k, e := range s.stripes[si].keys {
			b = snapString(b, k)
			b = binary.BigEndian.AppendUint32(b, uint32(len(e.writes)))
			for i := range e.writes {
				w := &e.writes[i]
				b = w.ver().AppendCanonical(b)
				id := idOf(w.writer)
				b = append(b, id[:]...)
				if w.committed() {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
				b = snapBytes(b, e.valueOf(k, w))
			}
			b = binary.BigEndian.AppendUint32(b, uint32(len(e.readers)))
			for i := range e.readers {
				r := &e.readers[i]
				b = r.readerTs().AppendCanonical(b)
				b = r.readVer(k).AppendCanonical(b)
				id := idOf(r.reader)
				b = append(b, id[:]...)
			}
		}
	}
	return b
}

// Restore rebuilds the store from a Snapshot encoding. The store must be
// empty (freshly constructed). It returns the bytes following the store
// section and the maximum timestamp seen anywhere in the snapshot.
func (s *Store) Restore(data []byte) (rest []byte, maxTs types.Timestamp, err error) {
	s.global.Lock()
	defer s.global.Unlock()
	d := &snapDecoder{b: data}
	if v := d.u8(); d.err == nil && v != snapVersion {
		return nil, maxTs, fmt.Errorf("store: unknown snapshot version %d", v)
	}
	floor := d.ts()
	if s.rtsFloor.Less(floor) {
		s.rtsFloor = floor
	}
	bump := func(ts types.Timestamp) {
		if maxTs.Less(ts) {
			maxTs = ts
		}
	}
	bump(floor)

	nTx := int(d.u32())
	for i := 0; i < nTx && d.err == nil; i++ {
		id := d.txid()
		rec := &TxRecord{Status: TxStatus(d.u8())}
		rec.Meta = d.metaOpt()
		rec.Cert = d.certOpt()
		if d.err != nil {
			break
		}
		if rec.Meta != nil {
			bump(rec.Meta.Timestamp)
		}
		s.txns[id] = rec
	}

	nKeys := int(d.u32())
	for i := 0; i < nKeys && d.err == nil; i++ {
		k := d.str()
		e := s.stripeOf(k).entry(k)
		nW := int(d.u32())
		for j := 0; j < nW && d.err == nil; j++ {
			ver := d.ts()
			id := d.txid()
			w := writeRec{writer: s.txns[id]}
			committed := d.u8() == 1
			value := d.bytes()
			if d.err != nil {
				break
			}
			// The version and value are derived from the writer, so the
			// stored ones must agree with it: the zero writer id for
			// genesis, a known record with that timestamp and a write of
			// that value otherwise.
			if err := checkResolved(k, "writer", id, w.writer, ver); err != nil {
				return nil, maxTs, err
			}
			if w.writer == nil {
				e.genesis = value
			} else if v, ok := writtenValue(w.writer.Meta, k); !ok || !bytes.Equal(v, value) {
				return nil, maxTs, fmt.Errorf("store: snapshot version %v of key %q holds a value its writer did not write", ver, k)
			}
			if committed != w.committed() {
				return nil, maxTs, fmt.Errorf("store: snapshot version %v of key %q disagrees with its writer's status", ver, k)
			}
			e.insertWrite(w)
			bump(ver)
		}
		nR := int(d.u32())
		for j := 0; j < nR && d.err == nil; j++ {
			readerTs := d.ts()
			readVer := d.ts()
			id := d.txid()
			r := readRec{reader: s.txns[id]}
			if d.err != nil {
				break
			}
			if r.reader == nil {
				return nil, maxTs, fmt.Errorf("store: snapshot reader %x of key %q has no record", id[:8], k)
			}
			if err := checkResolved(k, "reader", id, r.reader, readerTs); err != nil {
				return nil, maxTs, err
			}
			if r.readVer(k) != readVer {
				return nil, maxTs, fmt.Errorf("store: snapshot reader of key %q read %v, its record says %v", k, readVer, r.readVer(k))
			}
			// Older snapshots list readers in insertion order, which is
			// not quite timestamp order; inserting re-sorts them.
			e.insertReader(r)
			bump(readerTs)
		}
	}
	if d.err != nil {
		return nil, maxTs, fmt.Errorf("store: snapshot decode: %w", d.err)
	}
	return d.b, maxTs, nil
}

// checkResolved verifies that the record a snapshot entry of key k names
// by id resolves, and that the timestamp the entry stored equals the one
// the store will derive from the record.
func checkResolved(k, role string, id types.TxID, rec *TxRecord, stored types.Timestamp) error {
	var derived types.Timestamp
	switch {
	case rec != nil && rec.Meta != nil:
		derived = rec.Meta.Timestamp
	case rec != nil || id != (types.TxID{}):
		return fmt.Errorf("store: snapshot %s %x of key %q has no record with metadata", role, id[:8], k)
	}
	if derived != stored {
		return fmt.Errorf("store: snapshot %s of key %q stored timestamp %v, its record has %v", role, k, stored, derived)
	}
	return nil
}

// RestorePrepared reinstates a prepared transaction during WAL replay:
// the check already passed pre-crash (the logged commit vote proves it),
// so the writes and reader records are installed directly, without
// re-running Algorithm 1 against the partially rebuilt state. No-op if
// the transaction is already known (snapshot + log-suffix overlap).
func (s *Store) RestorePrepared(meta *types.TxMeta, id types.TxID) bool {
	s.global.Lock()
	defer s.global.Unlock()
	if s.txns[id] != nil {
		return false
	}
	rec := &TxRecord{Meta: meta, Status: StatusPrepared}
	s.txns[id] = rec
	s.install(rec)
	return true
}

// --- tiny codec helpers (same idiom as internal/types/encode.go) ---

func snapString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func snapBytes(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

func snapMetaOpt(b []byte, m *types.TxMeta) []byte {
	if m == nil {
		return append(b, 0)
	}
	return m.AppendCanonical(append(b, 1))
}

type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *snapDecoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	// Every count or length prefixes data of at least one byte per unit,
	// so a value beyond the remaining input is corruption; failing here
	// keeps a corrupt length from driving a huge allocation loop.
	if uint64(v) > uint64(len(d.b)) {
		d.err = types.ErrTruncated
		return 0
	}
	return v
}

func (d *snapDecoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *snapDecoder) ts() types.Timestamp {
	return types.Timestamp{Time: d.u64(), ClientID: d.u64()}
}

func (d *snapDecoder) txid() types.TxID {
	if d.err != nil || len(d.b) < 32 {
		d.fail()
		return types.TxID{}
	}
	var id types.TxID
	copy(id[:], d.b)
	d.b = d.b[32:]
	return id
}

func (d *snapDecoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b)
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) str() string { return string(d.bytes()) }

func (d *snapDecoder) metaOpt() *types.TxMeta {
	if d.u8() == 0 || d.err != nil {
		return nil
	}
	m, rest, err := types.DecodeTxMeta(d.b)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = rest
	return m
}

func (d *snapDecoder) certOpt() *types.DecisionCert {
	if d.err != nil {
		return nil
	}
	c, rest, err := types.DecodeDecisionCert(d.b)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = rest
	return c
}

func (d *snapDecoder) fail() {
	if d.err == nil {
		d.err = types.ErrTruncated
	}
}
