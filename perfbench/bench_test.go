package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/benchharness"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/workload"
)

// fakeSystem is a serial in-memory store behind benchharness.System. Each
// commit call asks outcome for its result; a committed transaction gets
// the next timestamp and installs its writes.
type fakeSystem struct {
	mu      sync.Mutex
	data    map[string][]byte
	ver     map[string]types.Timestamp
	clock   uint64
	commits int
	outcome func(call int) error
	corrupt string // a key whose reads return a wrong value
}

func newFake(outcome func(int) error) *fakeSystem {
	return &fakeSystem{data: map[string][]byte{}, ver: map[string]types.Timestamp{}, outcome: outcome}
}

func (f *fakeSystem) Name() string                     { return "fake" }
func (f *fakeSystem) Load(k string, v []byte)          { f.data[k] = v }
func (f *fakeSystem) Close()                           {}
func (f *fakeSystem) NewSession() benchharness.Session { return fakeSession{f} }

type fakeSession struct{ f *fakeSystem }

func (s fakeSession) Begin() benchharness.SysTx { return &fakeTx{f: s.f, writes: map[string][]byte{}} }

type fakeTx struct {
	f      *fakeSystem
	meta   types.TxMeta
	writes map[string][]byte
}

func (t *fakeTx) Read(k string) ([]byte, error) {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	t.meta.ReadSet = append(t.meta.ReadSet, types.ReadEntry{Key: k, Version: t.f.ver[k]})
	if k == t.f.corrupt {
		return []byte("wrong"), nil
	}
	return t.f.data[k], nil
}

func (t *fakeTx) Write(k string, v []byte) { t.writes[k] = v }
func (t *fakeTx) Abort()                   {}

func (t *fakeTx) Commit() error {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	t.f.commits++
	if err := t.f.outcome(t.f.commits); err != nil {
		return err
	}
	t.f.clock++
	t.meta.Timestamp = types.Timestamp{Time: t.f.clock}
	for k, v := range t.writes {
		t.f.data[k], t.f.ver[k] = v, t.meta.Timestamp
		t.meta.WriteSet = append(t.meta.WriteSet, types.WriteEntry{Key: k, Value: v})
	}
	return nil
}

func (t *fakeTx) Meta() *types.TxMeta { return &t.meta }

func ycsb() workload.Generator {
	return workload.NewYCSB(workload.YCSBConfig{Keys: 50, ReadOps: 2, WriteOps: 2})
}

// runFake drives one session of a populated fake through n transactions.
func runFake(t *testing.T, f *fakeSystem, n int) *phase {
	t.Helper()
	gen := ycsb()
	gen.Populate(f.Load)
	return runCount(newLoopSessions(f, 1, 7), gen, n)
}

func TestAttemptsIdentity(t *testing.T) {
	// Every third commit call aborts and every seventh times out.
	f := newFake(func(call int) error {
		switch {
		case call%7 == 0:
			return basil.ErrTimeout
		case call%3 == 0:
			return basil.ErrAborted
		}
		return nil
	})
	p := runFake(t, f, 40)
	if p.Started != 40 {
		t.Fatalf("started %d, want 40", p.Started)
	}
	if p.Attempts != p.Commits+p.Retried+p.Failed {
		t.Fatalf("attempts %d != commits %d + retried %d + failed %d", p.Attempts, p.Commits, p.Retried, p.Failed)
	}
	if p.Attempts != f.commits {
		t.Fatalf("attempts %d, but the system saw %d commit calls", p.Attempts, f.commits)
	}
	if p.Failed == 0 || p.Retried == 0 || p.Commits+p.Failed != p.Started {
		t.Fatalf("want aborts, timeouts and commits: %+v", p)
	}
	if len(p.LatMs) != p.Commits || len(p.Committed) != p.Commits || len(p.CommitMs) != p.Attempts {
		t.Fatalf("samples: %d latencies, %d metas, %d commit calls for %d commits / %d attempts",
			len(p.LatMs), len(p.Committed), len(p.CommitMs), p.Commits, p.Attempts)
	}
}

func TestStarvedTransactionFails(t *testing.T) {
	f := newFake(func(int) error { return basil.ErrAborted })
	p := runFake(t, f, 1)
	if p.Failed != 1 || p.Attempts != maxAttempts || p.Retried != maxAttempts-1 || p.Commits != 0 {
		t.Fatalf("starved transaction: %+v", p)
	}
	if len(p.Unsure) != 2 {
		t.Fatalf("a failed transaction's 2 writes are unsure, got %v", p.Unsure)
	}
}

func TestFailRateAccounting(t *testing.T) {
	f := newFake(func(call int) error {
		if call%5 == 0 {
			return errors.New("replica unreachable")
		}
		return nil
	})
	p := runFake(t, f, 50)
	if p.Failed != 10 || p.Retried != 0 {
		t.Fatalf("every fifth transaction fails without retry: %+v", p)
	}
	var r report
	r.account(p, checkResult{Bad: 3})
	if r.started != 50 || r.failed != 13 {
		t.Fatalf("report counts %d started, %d failed; want 50, 13", r.started, r.failed)
	}
	r.account(p, checkResult{Bad: 1000}) // a DSG failure cannot fail more than were started
	if r.started != 100 || r.failed != 63 {
		t.Fatalf("report counts %d started, %d failed; want 100, 63", r.started, r.failed)
	}

	zero := failRateUpper(0, 1000)
	if zero <= 0 || math.Abs(zero-3.8416/1003.8416) > 1e-9 {
		t.Fatalf("0 of 1000 failed: upper bound %v", zero)
	}
	if failRateUpper(0, 2000) >= zero || failRateUpper(1, 1000) <= zero {
		t.Fatal("the bound must fall with more transactions and rise with more failures")
	}
	if got := failRateUpper(100, 1000); got <= 0.1 || got > 0.13 {
		t.Fatalf("100 of 1000 failed: upper bound %v", got)
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: quantile sorts
		}
		return out
	}
	if v, ok := quantile(xs(1000), 0.99, 10); !ok || v != 990 {
		t.Fatalf("1000 samples: p99 %v ok %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := quantile(xs(999), 0.99, 10); ok {
		t.Fatal("999 samples leave 9 beyond p99, which must not count")
	}
	if _, err := p99("lat_p99_ms", xs(500)); err == nil {
		t.Fatal("p99 over 500 samples must be refused")
	}
	if v := median(xs(5)); v != 3 {
		t.Fatalf("median of 1..5 = %v", v)
	}
}

func TestProcIODelta(t *testing.T) {
	before, err := parseProcIO("rchar: 10\nwchar: 1000\nsyscr: 3\nsyscw: 7\nread_bytes: 0\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProcIO("rchar: 10\nwchar: 4096\nsyscr: 3\nsyscw: 19\n")
	if err != nil {
		t.Fatal(err)
	}
	if after.WChar-before.WChar != 3096 || after.SyscW-before.SyscW != 12 {
		t.Fatalf("delta %+v - %+v", after, before)
	}
	if _, err := parseProcIO("rchar: 1\n"); err == nil {
		t.Fatal("missing fields must be an error")
	}

	// The real file moves when this process writes.
	dir := t.TempDir()
	io0, err := readProcIO()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x"), make([]byte, 5000), 0o644); err != nil {
		t.Fatal(err)
	}
	io1, err := readProcIO()
	if err != nil {
		t.Fatal(err)
	}
	if io1.WChar-io0.WChar < 5000 || io1.SyscW-io0.SyscW < 1 {
		t.Fatalf("writing 5000 bytes moved wchar by %d, syscw by %d", io1.WChar-io0.WChar, io1.SyscW-io0.SyscW)
	}
}

func TestDirBytesDelta(t *testing.T) {
	dir := t.TempDir()
	if n, err := dirBytes(""); n != 0 || err != nil {
		t.Fatalf("no dir: %d %v", n, err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "s0-r1"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, n int) {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("s0-r1/seg-1.wal", 300)
	before, err := dirBytes(dir)
	if err != nil || before != 300 {
		t.Fatalf("before: %d %v", before, err)
	}
	write("s0-r1/seg-1.wal", 120)
	write("seg-2.wal", 80)
	after, err := dirBytes(dir)
	if err != nil || after-before != 200 {
		t.Fatalf("delta %d (%v), want 200", after-before, err)
	}
}

func TestDarkFracKnownGap(t *testing.T) {
	// txn [0,100): reads [10,30) and [25,50) overlap, commit [60,90);
	// the commit's child [65,70) must not count for the txn. Children
	// cover 40+30 = 70, so 30 of 100 is dark.
	spans := []span{
		{Txn: 1, ID: 1, Name: "txn", Start: 0, End: 100},
		{Txn: 1, ID: 2, Parent: 1, Name: "client.read", Start: 10, End: 30},
		{Txn: 1, ID: 3, Parent: 1, Name: "client.read", Start: 25, End: 50},
		{Txn: 1, ID: 4, Parent: 1, Name: "client.commit", Start: 60, End: 90},
		{Txn: 1, ID: 5, Parent: 4, Name: "inner", Start: 65, End: 70},
		// A second transaction fully covered, except a child that
		// overhangs its end and is clipped.
		{Txn: 2, ID: 1, Name: "txn", Start: 1000, End: 1100},
		{Txn: 2, ID: 2, Parent: 1, Name: "client.commit", Start: 1000, End: 1150},
	}
	if got := darkFrac(spans[:5]); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("dark frac %v, want 0.3", got)
	}
	if got := darkFrac(spans); math.Abs(got-30.0/200) > 1e-12 {
		t.Fatalf("dark frac over two txns %v, want 0.15", got)
	}
	self := selfMs(spans)
	if got := self["txn"]; len(got) != 2 || got[0] != 30/1e6 || got[1] != 0 {
		t.Fatalf("txn self times %v", got)
	}
	if got := self["client.commit"]; got[0] != 25/1e6 {
		t.Fatalf("commit self time %v, want 25ns", got)
	}
}

func TestFromTracerReparentsToRoot(t *testing.T) {
	got := fromTracer([]*trace.Span{
		{TraceID: 9, SpanID: 100, Name: trace.RootSpan, Start: 0, End: 50},
		{TraceID: 9, SpanID: 101, Parent: 100, Name: "client.prepare", Start: 5, End: 20},
		{TraceID: 9, SpanID: 102, Name: "replica.check", Start: 8, End: 9},
		{TraceID: 9, SpanID: 103, Name: "replica.verify", Start: 9, End: 8}, // skewed: dropped
	})
	if len(got) != 3 || got[0].Parent != 0 || got[1].Parent != 100 || got[2].Parent != 100 {
		t.Fatalf("converted %+v", got)
	}
}

func TestCheckHistory(t *testing.T) {
	f := newFake(func(int) error { return nil })
	p := runFake(t, f, 30)
	if chk := checkHistory(f, p.Committed, p.Unsure, 3); chk.Err != nil || chk.Bad != 0 || chk.Audited == 0 {
		t.Fatalf("a correct history: %+v", chk)
	}

	// A read that returns another value than the last committed write.
	f.corrupt = p.Committed[len(p.Committed)-1].WriteSet[0].Key
	chk := checkHistory(f, p.Committed, p.Unsure, 3)
	if chk.Bad != 1 || chk.Err == nil || !strings.Contains(chk.Err.Error(), "final-read audit") {
		t.Fatalf("a stale read must fail one transaction: %+v", chk)
	}
	// Unsure keys are not audited.
	if chk := checkHistory(f, p.Committed, []string{f.corrupt}, 3); chk.Err != nil {
		t.Fatalf("unsure key audited: %v", chk.Err)
	}
	f.corrupt = ""

	// A lost update: two transactions read the same version of a key and
	// both wrote it — a DSG cycle, which fails every committed transaction.
	k := "ycsb:1"
	a := &types.TxMeta{Timestamp: types.Timestamp{Time: 100},
		ReadSet: []types.ReadEntry{{Key: k}}, WriteSet: []types.WriteEntry{{Key: k, Value: []byte("a")}}}
	b := &types.TxMeta{Timestamp: types.Timestamp{Time: 101},
		ReadSet: []types.ReadEntry{{Key: k}}, WriteSet: []types.WriteEntry{{Key: k, Value: []byte("b")}}}
	chk = checkHistory(f, []*types.TxMeta{a, b}, nil, 3)
	if chk.Err == nil || chk.Bad != 2 {
		t.Fatalf("lost update must fail the DSG check: %+v", chk)
	}
}

func TestRunForStopsAfterDeadline(t *testing.T) {
	f := newFake(func(int) error { return nil })
	gen := ycsb()
	gen.Populate(f.Load)
	p := runFor(newLoopSessions(f, 2, 1), gen, 20*time.Millisecond, true)
	if p.Sessions != 2 || p.Started == 0 || p.Elapsed < 20*time.Millisecond {
		t.Fatalf("phase %+v", p)
	}
	// Traced: one txn span, 4 reads and 1 commit per transaction.
	if len(p.Spans) != 6*p.Started {
		t.Fatalf("%d spans for %d transactions", len(p.Spans), p.Started)
	}
	if got := darkFrac(p.Spans); got < 0 || got >= 1 {
		t.Fatalf("dark frac %v", got)
	}
}

func TestNoopFsync(t *testing.T) {
	filters := func() string {
		b, err := os.ReadFile("/proc/self/status")
		if err != nil {
			t.Skip(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "Seccomp_filters:") {
				return strings.TrimSpace(strings.TrimPrefix(line, "Seccomp_filters:"))
			}
		}
		t.Skip("no Seccomp_filters in /proc/self/status")
		return ""
	}
	before := filters()
	if err := noopFsync(); err != nil {
		t.Fatal(err)
	}
	if after := filters(); after == before {
		t.Fatalf("seccomp filter count stayed %s", after)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString("durable?"); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("fsync under the filter: %v", err)
	}
}

func TestLayerAccountNamesListed(t *testing.T) {
	defs, err := loadDefs("..", true)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		listed[d.Name] = true
	}
	for name := range layerAccount(snap{}, 1) {
		if !listed[name] {
			t.Errorf("layerAccount measures %q, which BENCHMARK.json's per_layer does not list", name)
		}
	}
}
