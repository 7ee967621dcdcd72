package trace

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/types"
)

// fakeClock is a deterministic span clock.
type fakeClock struct {
	mu  sync.Mutex
	now int64
}

func (c *fakeClock) tick(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

func newTestTracer(rate float64) (*Tracer, *fakeClock) {
	c := &fakeClock{now: 1}
	return New(Options{SampleRate: rate, RingSize: 128, TopK: 4,
		Clock: func() int64 { return c.tick(1000) }}), c
}

func TestBeginSampling(t *testing.T) {
	always, _ := newTestTracer(1)
	never, _ := newTestTracer(0)
	for i := 0; i < 100; i++ {
		tc, root := always.Begin()
		if !tc.Sampled || tc.TraceID == 0 || root == 0 {
			t.Fatalf("rate 1: got %+v root %d", tc, root)
		}
		tc, _ = never.Begin()
		if tc.Sampled {
			t.Fatal("rate 0: sampled")
		}
		if tc.TraceID == 0 {
			t.Fatal("rate 0: trace id must still be assigned for later Force")
		}
	}
	half, _ := newTestTracer(0.5)
	sampled := 0
	for i := 0; i < 2000; i++ {
		if tc, _ := half.Begin(); tc.Sampled {
			sampled++
		}
	}
	if sampled < 700 || sampled > 1300 {
		t.Fatalf("rate 0.5 sampled %d/2000", sampled)
	}
}

func TestSpanLifecycleAndFinish(t *testing.T) {
	tr, _ := newTestTracer(1)
	tc, root := tr.Begin()
	begun := tr.Start(tc)
	s := tr.Start(tc)
	tr.End(tc, "c0", "client.read", root, s)
	tr.Record(tc, "r0.1", "replica.check", 0, 5000, 6000)
	tr.Finish(tc, "c0", root, begun, "commit")

	spans := tr.Spans()
	byName := map[string]*Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	r := byName[RootSpan]
	if r == nil || r.SpanID != root || r.Attrs != "status=commit" || r.End <= r.Start {
		t.Fatalf("bad root span %+v", r)
	}
	if rd := byName["client.read"]; rd == nil || rd.Parent != root || rd.Node != "c0" {
		t.Fatalf("bad read span %+v", byName["client.read"])
	}
	if ck := byName["replica.check"]; ck == nil || ck.Start != 5000 || ck.End != 6000 {
		t.Fatalf("bad check span %+v", byName["replica.check"])
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].TraceID != tc.TraceID || slow[0].Status != "commit" {
		t.Fatalf("bad slow index %+v", slow)
	}
}

func TestForceUpgradesContext(t *testing.T) {
	tr, _ := newTestTracer(0)
	tc, _ := tr.Begin()
	if tc.Sampled {
		t.Fatal("precondition: unsampled")
	}
	tr.Force(&tc, "c2", "overload")
	if !tc.Sampled {
		t.Fatal("Force must set Sampled")
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "trace.forced" || spans[0].Attrs != "reason=overload" {
		t.Fatalf("bad forced marker %+v", spans)
	}
	// Subsequent spans on the upgraded context record normally.
	s := tr.Start(tc)
	if s == 0 {
		t.Fatal("upgraded context must record")
	}
}

func TestSlowIndexKeepsTopK(t *testing.T) {
	tr, _ := newTestTracer(1)
	for i := 0; i < 20; i++ {
		tc, root := tr.Begin()
		begun := int64(1)
		// Fabricate durations 1..20ms by stepping the fake clock i times.
		for j := 0; j <= i; j++ {
			tr.Start(tc)
		}
		tr.Finish(tc, "c0", root, begun, "commit")
	}
	slow := tr.Slow()
	if len(slow) != 4 {
		t.Fatalf("topK: got %d entries", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].DurNanos > slow[i-1].DurNanos {
			t.Fatalf("slow not sorted desc: %+v", slow)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(Options{SampleRate: 1, RingSize: 8, TopK: 2,
		Clock: func() int64 { return 7 }})
	tc := types.TraceContext{TraceID: 9, Sampled: true}
	for i := 0; i < 100; i++ {
		tr.Record(tc, "n", "s", 0, 1, 2)
	}
	if got := len(tr.Spans()); got != 8 {
		t.Fatalf("ring holds %d spans, want 8", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tc, root := tr.Begin()
	if tc != (types.TraceContext{}) || root != 0 {
		t.Fatal("nil Begin must return zero values")
	}
	if tr.Start(tc) != 0 {
		t.Fatal("nil Start must return 0")
	}
	tr.End(tc, "n", "s", 0, 0)
	tr.Record(tc, "n", "s", 0, 1, 2)
	tr.Finish(tc, "n", 0, 1, "commit")
	tr.Force(&tc, "n", "overload")
	if tr.Spans() != nil || tr.Slow() != nil {
		t.Fatal("nil snapshots must be nil")
	}
}

// TestUnsampledPathAllocFree pins the disabled-path contract (mirrors
// metrics' TestRecordPathAllocFree): Begin, Start, End, Record and
// Finish on an unsampled transaction allocate nothing.
func TestUnsampledPathAllocFree(t *testing.T) {
	tr, _ := newTestTracer(0)
	tc, root := tr.Begin()
	if n := testing.AllocsPerRun(100, func() {
		tc2, _ := tr.Begin()
		s := tr.Start(tc2)
		tr.End(tc2, "n", "s", 0, s)
		tr.Record(tc2, "n", "s", 0, s, s)
		tr.Finish(tc2, "n", root, s, "commit")
	}); n != 0 {
		t.Fatalf("unsampled path allocates %v/op", n)
	}
	_ = tc
	var nilTr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		tc2, _ := nilTr.Begin()
		s := nilTr.Start(tc2)
		nilTr.End(tc2, "n", "s", 0, s)
	}); n != 0 {
		t.Fatalf("nil-tracer path allocates %v/op", n)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr, _ := newTestTracer(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tc, root := tr.Begin()
				begun := tr.Start(tc)
				s := tr.Start(tc)
				tr.End(tc, "n", "client.read", root, s)
				tr.Finish(tc, "n", root, begun, "commit")
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			_ = tr.Spans()
			_ = tr.Slow()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if len(tr.Spans()) == 0 || len(tr.Slow()) != 4 {
		t.Fatal("concurrent recording lost everything")
	}
}

func TestTracesHandlerJSON(t *testing.T) {
	tr, _ := newTestTracer(1)
	tc, root := tr.Begin()
	begun := tr.Start(tc)
	s := tr.Start(tc)
	tr.End(tc, "c0", "client.prepare", root, s)
	tr.Record(tc, "r0.1", "replica.check", 0, begun+10, begun+20)
	tr.Force(&tc, "c0", "fallback")
	tr.Finish(tc, "c0", root, begun, "abort")

	rec := httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var got struct{ Traces []JSONTrace }
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got.Traces) != 1 {
		t.Fatalf("got %d traces", len(got.Traces))
	}
	jt := got.Traces[0]
	if jt.Status != "abort" || !slices.Equal(jt.Forced, []string{"fallback"}) || jt.Incomplete {
		t.Fatalf("bad trace header %+v", jt)
	}
	names := map[string]bool{}
	for _, c := range jt.Root.Children {
		names[c.Name] = true
	}
	if !names["client.prepare"] || !names["replica.check"] || !names["trace.forced"] {
		t.Fatalf("missing children: %+v", jt.Root.Children)
	}

	// Limit parameter.
	rec = httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/traces?n=0", nil))
	if rec.Code != 200 {
		t.Fatalf("limit request: %d", rec.Code)
	}
}

// TestTracesListEveryForcedReason: a transaction forced into capture for
// more than one reason (here: recovery, then a shed) lists every reason,
// in the order they forced it, each once.
func TestTracesListEveryForcedReason(t *testing.T) {
	tr, _ := newTestTracer(0)
	tc, root := tr.Begin()
	begun := tr.Start(tc)
	tr.Force(&tc, "c0", "recovery")
	tr.Force(&tc, "c0", "overload")
	tr.Force(&tc, "c0", "overload")
	tr.Finish(tc, "c0", root, begun, "commit")

	rec := httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	var got struct{ Traces []JSONTrace }
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got.Traces) != 1 {
		t.Fatalf("got %d traces", len(got.Traces))
	}
	if want := []string{"recovery", "overload"}; !slices.Equal(got.Traces[0].Forced, want) {
		t.Fatalf("forced = %q, want %q", got.Traces[0].Forced, want)
	}
}

func TestSlowHandlerJSON(t *testing.T) {
	tr, _ := newTestTracer(1)
	tc, root := tr.Begin()
	begun := tr.Start(tc)
	tr.Finish(tc, "c0", root, begun, "commit")

	rec := httptest.NewRecorder()
	SlowHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/traces/slow", nil))
	var got struct {
		Slow []struct {
			Trace  string     `json:"trace_id"`
			DurMs  float64    `json:"dur_ms"`
			Status string     `json:"status"`
			Tree   *JSONTrace `json:"trace"`
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got.Slow) != 1 || got.Slow[0].Status != "commit" || got.Slow[0].Tree == nil {
		t.Fatalf("bad slow rows: %+v", got.Slow)
	}
	if got.Slow[0].Trace != hexID(tc.TraceID) {
		t.Fatalf("trace id %q, want %q", got.Slow[0].Trace, hexID(tc.TraceID))
	}
}

func TestIncompleteTraceSynthesizesRoot(t *testing.T) {
	tr, _ := newTestTracer(1)
	tc := types.TraceContext{TraceID: 42, Sampled: true}
	tr.Record(tc, "r0.0", "replica.check", 0, 100, 300)
	traces := assemble(tr.Spans(), 0)
	if len(traces) != 1 || !traces[0].Incomplete {
		t.Fatalf("expected one incomplete trace, got %+v", traces)
	}
	if traces[0].StartUnixNs != 100 || traces[0].DurUs != 0 {
		t.Fatalf("bad synthesized envelope %+v", traces[0])
	}
}

func TestFlightRecorder(t *testing.T) {
	f := NewFlightRecorder("r0.1", 4)
	for i := 0; i < 10; i++ {
		f.Note("shed", "kind=st1")
	}
	f.Note("mute", "wal append failed")
	ev := f.Snapshot()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	if ev[len(ev)-1].Kind != "mute" {
		t.Fatalf("newest event %+v", ev[len(ev)-1])
	}
	var sb strings.Builder
	f.Dump(&sb)
	if !strings.Contains(sb.String(), "flightrec r0.1") || !strings.Contains(sb.String(), "wal append failed") {
		t.Fatalf("dump output: %q", sb.String())
	}

	var nilRec *FlightRecorder
	nilRec.Note("x", "y")
	if nilRec.Snapshot() != nil || nilRec.Name() != "" {
		t.Fatal("nil recorder must be inert")
	}
	nilRec.Dump(&sb)

	rec := httptest.NewRecorder()
	FlightHandler(f, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrec", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var got struct {
		Recorders []struct {
			Name   string  `json:"name"`
			Events []Event `json:"events"`
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got.Recorders) != 1 || got.Recorders[0].Name != "r0.1" || len(got.Recorders[0].Events) != 4 {
		t.Fatalf("bad recorders: %+v", got.Recorders)
	}
}

func TestHexID(t *testing.T) {
	if got := hexID(0xDEADBEEF); got != "00000000deadbeef" {
		t.Fatalf("hexID: %q", got)
	}
}
