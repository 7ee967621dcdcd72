// Package wal is the durability subsystem: an append-only, segmented
// write-ahead log of length-prefixed, CRC32-framed records, plus
// checkpoint files that bound both log and replay length.
//
// Group commit. Append blocks until the record is on disk, but the fsync
// that makes it so is shared, with no background goroutine and no timed
// window: an appender that finds no sync in flight becomes the leader,
// yields the processor once so appenders already runnable can join, and
// syncs everything written so far, outside the log mutex; appends that
// arrive while it syncs write their frames and wait, and the first of
// them to find the sync finished leads the next group. A lone appender
// therefore pays exactly one fsync and no wait, and under concurrency
// each fsync retires every record that arrived during the previous one
// — the group size adapts to the device's sync latency by itself.
//
// Checkpoints. Checkpoint(snap) rotates to a fresh segment first and
// builds the snapshot after, so the snapshot is guaranteed to cover every
// record in the segments it supersedes (state mutated between rotation
// and the snapshot read shows up in both the snapshot and the kept
// suffix; replay of the suffix must therefore be idempotent). The
// checkpoint file is written to a temp name, fsynced, renamed, and the
// directory fsynced, then all superseded segments and older checkpoints
// are pruned. Replay = newest valid checkpoint + the segment suffix.
//
// Crash tolerance. A crash mid-append leaves a truncated or torn final
// frame; recovery stops replay at the first bad frame of the *last*
// segment (and truncates it away before appending resumes) but treats
// corruption anywhere else as real damage and refuses to open. A crash
// mid-checkpoint leaves either a .tmp file (ignored) or a valid renamed
// checkpoint with stale segments not yet pruned (pruned on next open).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Segment and checkpoint file naming. Sequence numbers only ever grow;
// ckpt-N supersedes every seg-M with M < N.
const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
)

// segMagic starts every segment and checkpoint file: "BWAL" plus a
// format version byte.
var segMagic = []byte{'B', 'W', 'A', 'L', 1}

// ErrClosed reports an Append or Checkpoint on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt reports damage that truncated-tail tolerance cannot excuse:
// a bad frame in a non-final segment, or an unreadable segment header.
var ErrCorrupt = errors.New("wal: corrupt log")

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory, created if missing.
	Dir string
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. Default 4 MiB.
	SegmentBytes int64
	// SyncDelay, if non-nil, is consulted before every group-commit fsync
	// a leader issues and the returned duration is slept out first — the
	// chaos harness's slow-disk injection (internal/scenario). The sleep
	// happens outside the log mutex, exactly where a slow device would
	// stall: appenders arriving meanwhile keep coalescing behind it into
	// the next group, so an injected delay degrades append latency the
	// same way a real degraded disk does. Must be safe for concurrent
	// use; a zero or negative return injects nothing.
	SyncDelay func() time.Duration

	// AppendLatency, if non-nil, records each successful Append's total
	// latency (write + group-commit wait + fsync). SyncLatency records
	// each group-commit fsync a leader issues. PruneFailures counts checkpoint
	// prunes that could not remove superseded files (stale segments cost
	// disk, not correctness — but silent accumulation fills disks). All
	// are nil-safe no-ops when unset (see internal/metrics).
	AppendLatency *metrics.Histogram
	SyncLatency   *metrics.Histogram
	PruneFailures *metrics.Counter
}

func (o *Options) withDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// Recovered is what Open found on disk: the newest valid checkpoint
// snapshot (nil if none) and every record appended after it, in append
// order.
type Recovered struct {
	Snapshot []byte
	Records  [][]byte
}

// Stats are cumulative counters since Open.
type Stats struct {
	Appends uint64 // records durably appended
	Syncs   uint64 // fsyncs issued for them (group commit shares syncs)
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	opts Options
	dir  *os.File // held open for directory fsyncs

	// mu guards every field below — segment handle, generation counters,
	// and group-commit state; appenders park on cond (which releases mu)
	// while a leader syncs.
	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever a sync ends or the log fails
	f    *os.File   // current segment
	seq  uint64     // current segment sequence number
	size int64

	appended uint64 // generation: records written to the OS buffer
	synced   uint64 // generation: records durably on disk
	syncing  bool   // a leader's sync is in flight (outside mu)
	fences   int    // Checkpoints waiting to rotate; no appender leads meanwhile
	syncErr  error  // sticky: first sync failure poisons the log
	closed   bool   // Close has begun: no new appends, no new leaders

	stats Stats
}

// Open recovers whatever log state dir holds and opens it for appending.
// The returned Recovered carries the newest checkpoint snapshot and the
// record suffix to replay; a truncated tail on the final segment is
// dropped (and truncated on disk) rather than treated as corruption.
func Open(opts Options) (*Log, *Recovered, error) {
	opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.Open(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{opts: opts, dir: dir}
	l.cond = sync.NewCond(&l.mu)

	rec, cut, lastSeq, lastValid, err := recoverState(opts.Dir)
	if err != nil {
		dir.Close()
		return nil, nil, err
	}
	// Resume appending into the last segment, truncating any torn tail so
	// new frames follow the last valid one. No usable segment means a
	// fresh one — numbered from the checkpoint cut when one exists, so a
	// recreated segment never sorts below the snapshot that covers its
	// predecessors.
	if lastSeq == 0 {
		l.seq = 1
		if cut > 1 {
			l.seq = cut
		}
		if err := l.openSegment(); err != nil {
			dir.Close()
			return nil, nil, err
		}
	} else {
		path := filepath.Join(opts.Dir, segName(lastSeq))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			dir.Close()
			return nil, nil, err
		}
		if err := f.Truncate(lastValid); err != nil {
			f.Close()
			dir.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			dir.Close()
			return nil, nil, err
		}
		l.f, l.seq, l.size = f, lastSeq, lastValid
	}
	return l, rec, nil
}

// Append writes one record and blocks until it (and everything appended
// before it) is durable. If no sync is in flight the caller leads one
// that covers every frame written so far; otherwise it waits for the
// sync that ends next, and the first waiter still not covered by it
// leads the following group.
func (l *Log) Append(rec []byte) error {
	var start time.Time
	if l.opts.AppendLatency != nil {
		start = time.Now()
	}
	frame := make([]byte, 8+len(rec))
	binary.BigEndian.PutUint32(frame, uint32(len(rec)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(rec))
	copy(frame[8:], rec)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	if _, err := l.f.Write(frame); err != nil {
		l.syncErr = err
		l.cond.Broadcast()
		return err
	}
	l.size += int64(len(frame))
	l.appended++
	gen := l.appended
	// Every wait ends: a leader's sync, a rotation's or Close's final
	// sync covers gen, or one of them fails and sets syncErr.
	for l.synced < gen && l.syncErr == nil {
		if l.syncing || l.closed || l.fences > 0 {
			l.cond.Wait()
			continue
		}
		// No sync in flight: lead one. Yield once before fixing the
		// group, so appenders that are already runnable (the replica's
		// other ingest workers) write their frames into this sync
		// instead of each leading one of their own: on a real disk that
		// took a durable cluster from about one fsync per append to one
		// per four. It is a yield, not a timed wait; a lone appender pays
		// nothing for it.
		l.syncing = true
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		target, f := l.appended, l.f
		l.mu.Unlock()
		err := l.syncSegment(f)
		l.mu.Lock()
		l.publishSyncLocked(target, err)
	}
	if l.synced < gen {
		return l.syncErr
	}
	l.stats.Appends++
	if l.opts.AppendLatency != nil {
		l.opts.AppendLatency.Since(start)
	}
	return nil
}

// syncSegment is a leader's fsync of f, with the slow-disk injection
// and the latency histogram around it. Called without l.mu: appenders
// arriving meanwhile write their frames and form the next group.
func (l *Log) syncSegment(f *os.File) error {
	var syncStart time.Time
	if l.opts.SyncLatency != nil {
		syncStart = time.Now()
	}
	if l.opts.SyncDelay != nil {
		if d := l.opts.SyncDelay(); d > 0 {
			time.Sleep(d)
		}
	}
	err := f.Sync()
	if l.opts.SyncLatency != nil {
		l.opts.SyncLatency.Since(syncStart)
	}
	return err
}

// publishSyncLocked ends a leader's sync of every frame up to target:
// it records the result, rotates a full segment and wakes every waiter.
// Caller holds l.mu.
func (l *Log) publishSyncLocked(target uint64, err error) {
	l.syncing = false
	if err != nil {
		l.syncErr = err
	} else if l.synced < target {
		l.synced = target
		l.stats.Syncs++
	}
	// Close (once this sync is out of its way) closes the segment
	// itself; rotating here would race it.
	if l.size >= l.opts.SegmentBytes && l.syncErr == nil && !l.closed {
		if err := l.rotateLocked(); err != nil {
			l.syncErr = err
		}
	}
	l.cond.Broadcast()
}

// rotateLocked closes the current segment (syncing any frames no leader
// has retired yet, and waking their appenders) and opens the next one.
// Caller holds l.mu with no leader's sync in flight.
func (l *Log) rotateLocked() error {
	if l.appended != l.synced {
		// Unsynced frames may not move between files; sync them first.
		//nolint:basilvet — intentional barrier: the appenders this sync retires are parked on l.cond (which released l.mu), and rotation must not race new appends into the closing segment.
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.synced = l.appended
		l.stats.Syncs++
		l.cond.Broadcast()
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seq++
	return l.openSegment()
}

// openSegment creates segment l.seq and makes its existence durable.
func (l *Log) openSegment() error {
	path := filepath.Join(l.opts.Dir, segName(l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return err
	}
	//nolint:basilvet — intentional barrier: a new segment must exist durably before any append lands in it; runs only at open/rotate, never on the append fast path.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	//nolint:basilvet — intentional barrier: the directory entry must be durable too, same rotation-only path as above.
	if err := l.dir.Sync(); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, int64(len(segMagic))
	return nil
}

// Checkpoint rotates to a fresh segment, calls snap to capture a
// snapshot covering (at least) every record in the superseded segments,
// writes it durably, and prunes the segments and checkpoints it
// replaced. snap runs without any log lock held, so appends continue
// (into the kept suffix) while the snapshot is built.
func (l *Log) Checkpoint(snap func() []byte) error {
	l.mu.Lock()
	// A leader's sync holds a reference to the current segment file;
	// rotating (closing it) under its feet would fail that sync. The
	// fence keeps waiters from leading a fresh sync while this waits, so
	// a steady stream of appends cannot starve the rotation.
	l.fences++
	for l.syncing {
		l.cond.Wait()
	}
	l.fences--
	if l.closed {
		l.cond.Broadcast()
		l.mu.Unlock()
		return ErrClosed
	}
	if l.syncErr != nil {
		err := l.syncErr
		l.cond.Broadcast()
		l.mu.Unlock()
		return err
	}
	err := l.rotateLocked()
	if err != nil {
		l.syncErr = err
	}
	// Wake appenders held back by the fence (and any the rotation's sync
	// retired).
	l.cond.Broadcast()
	if err != nil {
		l.mu.Unlock()
		return err
	}
	cut := l.seq // everything below this segment is covered by the snapshot
	l.mu.Unlock()

	data := snap()

	// Write ckpt-<cut>: magic, u64 length, u32 CRC, payload — atomically
	// published by the rename, made durable by the directory sync.
	tmp := filepath.Join(l.opts.Dir, fmt.Sprintf("%s%08d.tmp", ckptPrefix, cut))
	final := filepath.Join(l.opts.Dir, ckptName(cut))
	buf := make([]byte, 0, len(segMagic)+12+len(data))
	buf = append(buf, segMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(data)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(data))
	buf = append(buf, data...)
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := l.dir.Sync(); err != nil {
		return err
	}
	// Best-effort prune: the checkpoint is fully published and durable at
	// this point, so a failure here (e.g. a transient ReadDir error)
	// costs stale files on disk, not correctness. Escalating it would
	// make the replica mute itself over promises that are all safely on
	// disk; the next checkpoint retries. Counted so persistent failures
	// (disk filling with superseded segments) are visible in /metrics.
	if err := prune(l.opts.Dir, cut); err != nil {
		l.opts.PruneFailures.Inc()
	}
	return nil
}

// Close syncs everything appended, wakes all waiters, and closes the
// files. Appends already waiting when it is called return nil once the
// final sync covers them. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// No new appends or leaders from here; wait out a leader's sync in
	// flight (it holds the segment file), then retire what it did not
	// cover.
	for l.syncing {
		l.cond.Wait()
	}
	var err error
	if l.appended != l.synced && l.syncErr == nil {
		//nolint:basilvet — intentional barrier: Close owns l.mu precisely to fence out new appenders while the final frames are made durable; shutdown-only path.
		err = l.f.Sync()
		if err == nil {
			l.synced = l.appended
			l.stats.Syncs++
		} else {
			l.syncErr = err
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if cerr := l.dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// StatsSnapshot returns the append/sync counters.
func (l *Log) StatsSnapshot() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// --- recovery ---

func segName(seq uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }
func ckptName(seq uint64) string { return fmt.Sprintf("%s%08d%s", ckptPrefix, seq, ckptSuffix) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// recoverState scans dir: picks the newest checkpoint whose CRC
// validates, then replays every segment at or after it. It returns the
// recovered state, the checkpoint cut (0 if none), the last usable
// segment's sequence number (0 if none), and the byte offset of the
// last valid frame boundary in that segment (so Open can truncate a
// torn tail).
func recoverState(dir string) (*Recovered, uint64, uint64, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var segs, ckpts []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })

	rec := &Recovered{}
	var cut uint64
	for _, cseq := range ckpts {
		data, err := readCheckpoint(filepath.Join(dir, ckptName(cseq)))
		if err != nil {
			// Checkpoints are fsynced before the rename publishes them, so
			// an unreadable one is bit rot, not a torn write (a crash
			// mid-write leaves only a .tmp, never parsed here). Fall back
			// to the next older checkpoint; whether the segments it needs
			// still exist is decided by the contiguity check below.
			continue
		}
		rec.Snapshot, cut = data, cseq
		break
	}
	if len(ckpts) > 0 && rec.Snapshot == nil {
		// Published checkpoints exist but none is readable. The segments
		// they superseded are pruned, so replaying "what's left" would
		// silently forget promises; refuse instead.
		return nil, 0, 0, 0, fmt.Errorf("%w: no readable checkpoint among %d", ErrCorrupt, len(ckpts))
	}

	// The replayable suffix must be contiguous and must start exactly at
	// the checkpoint's cut (the rotation that published it created that
	// segment) — a gap means pruned segments whose records the chosen
	// snapshot does not cover.
	var replay []uint64
	for _, seq := range segs {
		if seq >= cut {
			replay = append(replay, seq)
		}
	}
	if cut > 0 && len(replay) == 0 {
		// The rotation that published ckpt-cut created seg-cut before the
		// checkpoint was renamed into place, so a checkpoint with no
		// segment at (or after) its cut means the post-checkpoint history
		// was deleted out from under us. Replaying snapshot-only would
		// silently forget every promise appended after the checkpoint;
		// refuse instead.
		return nil, 0, 0, 0, fmt.Errorf("%w: checkpoint %d has no segment at its cut", ErrCorrupt, cut)
	}
	if len(replay) > 0 {
		want := cut
		if cut == 0 {
			want = 1 // a fresh log starts at seg-1
		}
		for _, seq := range replay {
			if seq != want {
				return nil, 0, 0, 0, fmt.Errorf("%w: segment %d missing (have %d)", ErrCorrupt, want, seq)
			}
			want++
		}
	}

	var lastSeq uint64
	var lastValid int64
	for i, seq := range replay {
		last := i == len(replay)-1
		records, valid, err := readSegment(filepath.Join(dir, segName(seq)), last)
		if err != nil {
			return nil, 0, cut, 0, err
		}
		if valid < 0 {
			// Torn header on the final segment: a crash inside openSegment
			// left the file without its magic. Skip it; Open resumes on
			// the previous segment and the next rotation recreates this
			// one with O_TRUNC.
			break
		}
		rec.Records = append(rec.Records, records...)
		lastSeq, lastValid = seq, valid
	}
	return rec, cut, lastSeq, lastValid, nil
}

// readSegment parses one segment's frames. A bad frame is a tolerated
// truncated tail only when tail is true (the final segment); anywhere
// else it is corruption. A final segment shorter than its header (crash
// inside openSegment before the magic hit disk) returns offset -1: the
// segment holds nothing and should be skipped, not refused.
func readSegment(path string, tail bool) ([][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if tail && len(data) < len(segMagic) {
		return nil, -1, nil
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
		return nil, 0, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, filepath.Base(path))
	}
	var records [][]byte
	off := int64(len(segMagic))
	rest := data[len(segMagic):]
	for len(rest) > 0 {
		if len(rest) < 8 {
			break // torn frame header
		}
		n := binary.BigEndian.Uint32(rest)
		crc := binary.BigEndian.Uint32(rest[4:])
		if uint64(len(rest)-8) < uint64(n) {
			break // torn payload
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break // torn or bit-flipped frame
		}
		records = append(records, payload)
		rest = rest[8+n:]
		off += 8 + int64(n)
	}
	if len(rest) > 0 && !tail {
		return nil, 0, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, filepath.Base(path), off)
	}
	return records, off, nil
}

func readCheckpoint(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdr := len(segMagic) + 12
	if len(data) < hdr || string(data[:len(segMagic)]) != string(segMagic) {
		return nil, fmt.Errorf("%w: %s: bad checkpoint header", ErrCorrupt, filepath.Base(path))
	}
	n := binary.BigEndian.Uint64(data[len(segMagic):])
	crc := binary.BigEndian.Uint32(data[len(segMagic)+8:])
	if uint64(len(data)-hdr) < n {
		return nil, fmt.Errorf("%w: %s: truncated checkpoint", ErrCorrupt, filepath.Base(path))
	}
	payload := data[hdr : hdr+int(n)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: %s: checkpoint CRC mismatch", ErrCorrupt, filepath.Base(path))
	}
	return payload, nil
}

// prune removes segments and checkpoints superseded by ckpt-cut. Failures
// are ignored: stale files cost disk, not correctness, and the next
// checkpoint retries.
func prune(dir string, cut uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && seq < cut {
			//nolint:basilvet — documented best-effort: a failed remove costs disk, not correctness; the next checkpoint retries and PruneFailures counts persistent trouble.
			os.Remove(filepath.Join(dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok && seq < cut {
			//nolint:basilvet — documented best-effort, same policy as the segment remove above.
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
