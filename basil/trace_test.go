package basil_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// tracesDoc mirrors the /traces JSON schema (internal/trace/http.go).
type tracesDoc struct {
	Traces []struct {
		TraceID string    `json:"trace_id"`
		Status  string    `json:"status"`
		Forced  []string  `json:"forced"`
		DurUs   int64     `json:"dur_us"`
		Root    traceSpan `json:"root"`
	} `json:"traces"`
}

type traceSpan struct {
	Name     string      `json:"name"`
	Node     string      `json:"node"`
	Attrs    string      `json:"attrs"`
	Children []traceSpan `json:"children"`
}

// walkSpans visits every span of a tree, root included.
func walkSpans(s traceSpan, visit func(traceSpan)) {
	visit(s)
	for _, c := range s.Children {
		walkSpans(c, visit)
	}
}

// TestTraceRecoveryForcedCaptureE2E proves the forced-capture promise over
// a real TCP shard: with the sampling rate at zero, a plain committed
// transaction leaves no trace, while a transaction that runs recovery
// (finishing an equivocated transaction) is captured end to end — its
// span tree, served over the admin HTTP endpoints, includes replica-side
// stages whose trace context traveled inside the framed wire protocol.
func TestTraceRecoveryForcedCaptureE2E(t *testing.T) {
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 1,
		TCPLoopback:         true,
		Tracing:             true,
		TraceSample:         0, // tail-only: nothing but forced captures
		AllowUnvalidatedST2: true,
		PhaseTimeout:        40 * time.Millisecond,
	})
	defer cl.Close()
	cl.Load("x", enc(5))

	recs := make([]*trace.FlightRecorder, 0, cl.ReplicaCount())
	for i := 0; i < cl.ReplicaCount(); i++ {
		recs = append(recs, cl.Replica(0, i).FlightRecorder())
	}
	admin, err := metrics.StartAdmin("127.0.0.1:0", metrics.NewRegistry(), cl.Replica(0, 0).Health,
		metrics.Route{Pattern: "/traces", Handler: trace.TracesHandler(cl.Tracer())},
		metrics.Route{Pattern: "/traces/slow", Handler: trace.SlowHandler(cl.Tracer())},
		metrics.Route{Pattern: "/debug/flightrec", Handler: trace.FlightHandler(recs...)},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr()

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
		}
	}

	// A plain committed transaction at sample rate 0 must not be traced.
	c0 := cl.NewClient()
	if err := c0.Run(func(tx *basil.Txn) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		tx.Write("x", enc(dec(v)+1))
		return nil
	}); err != nil {
		t.Fatalf("warmup commit: %v", err)
	}
	var before tracesDoc
	getJSON("/traces", &before)
	if len(before.Traces) != 0 {
		t.Fatalf("unsampled transaction appeared in /traces: %+v", before.Traces)
	}

	// A Byzantine client equivocates its ST2 decision; a correct client
	// finishes the transaction via recovery — a tail event that must be
	// captured regardless of the sampling rate.
	byz := cl.NewClient()
	btx := byz.Begin()
	v, _ := btx.Read("x")
	btx.Write("x", enc(dec(v)+50))
	if ok := byz.Inner().CommitFaulty(btx.Inner(), client.FaultEquivForced); !ok {
		t.Fatal("forced equivocation did not run")
	}
	meta := btx.Inner().MetaSnapshot()

	c := cl.NewClient()
	htx := c.Begin() // anchors the trace the recovery is charged to
	if _, _, err := c.Inner().FinishTransaction(meta); err != nil {
		t.Fatalf("recovery did not terminate: %v", err)
	}
	if err := htx.Commit(); err != nil {
		t.Fatalf("recovering transaction commit: %v", err)
	}

	var after tracesDoc
	getJSON("/traces", &after)
	if len(after.Traces) != 1 {
		t.Fatalf("want exactly the forced trace in /traces, got %d", len(after.Traces))
	}
	tr := after.Traces[0]
	if !slices.Contains(tr.Forced, "recovery") {
		t.Fatalf("forced reasons = %q, want \"recovery\" among them", tr.Forced)
	}
	if tr.Status != "commit" {
		t.Fatalf("trace status = %q, want \"commit\"", tr.Status)
	}
	var sawRecoverySpan, sawReplicaSpan bool
	walkSpans(tr.Root, func(s traceSpan) {
		if s.Name == "client.recovery" {
			sawRecoverySpan = true
		}
		if strings.HasPrefix(s.Name, "replica.") && strings.HasPrefix(s.Node, "r0.") {
			sawReplicaSpan = true
		}
	})
	if !sawRecoverySpan {
		t.Error("forced trace lacks the client.recovery span")
	}
	if !sawReplicaSpan {
		t.Error("forced trace lacks replica-side spans: the context did not propagate over TCP")
	}

	// /traces/slow indexes the finished forced transaction.
	var slow struct {
		Slow []struct {
			TraceID string `json:"trace_id"`
			Status  string `json:"status"`
		} `json:"slow"`
	}
	getJSON("/traces/slow", &slow)
	found := false
	for _, e := range slow.Slow {
		if e.TraceID == tr.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("forced trace %s missing from /traces/slow", tr.TraceID)
	}

	// Every replica's flight recorder is mounted and recorded its start.
	var flight struct {
		Recorders []struct {
			Name   string `json:"name"`
			Events []struct {
				Kind string `json:"kind"`
			} `json:"events"`
		} `json:"recorders"`
	}
	getJSON("/debug/flightrec", &flight)
	if len(flight.Recorders) != cl.ReplicaCount() {
		t.Fatalf("flight recorders served = %d, want %d", len(flight.Recorders), cl.ReplicaCount())
	}
	for _, r := range flight.Recorders {
		started := false
		for _, e := range r.Events {
			if e.Kind == "start" {
				started = true
			}
		}
		if !started {
			t.Errorf("recorder %s has no start event", r.Name)
		}
	}
}

// TestTraceOverloadForcedCaptureE2E floods a shard past its admission cap
// and checks the third forced-capture rule: a transaction that received an
// explicit Overloaded shed appears in /traces even at sampling rate zero.
func TestTraceOverloadForcedCaptureE2E(t *testing.T) {
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 1,
		Tracing:       true,
		TraceSample:   0,
		DispatchQueue: 8,
		VerifyWorkers: 1,
		PhaseTimeout:  30 * time.Millisecond,
		RetryTimeout:  time.Second,
	})
	defer cl.Close()
	cl.Load("k", enc(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		byz := cl.NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			inner := byz.Inner()
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := inner.Begin()
				tx.Write("k", enc(n))
				inner.CommitFaulty(tx, client.FaultStallEarly)
			}
		}()
	}

	// Probe until one of the probe's transactions consumes an Overloaded
	// reply — that transaction's trace is force-captured mid-flight.
	probe := cl.NewClient()
	deadline := time.Now().Add(60 * time.Second)
	for probe.Stats().Overloads.Load() == 0 && time.Now().Before(deadline) {
		tx := probe.Begin()
		tx.Write("k", enc(999))
		_ = tx.Commit()
	}
	close(stop)
	wg.Wait()
	if probe.Stats().Overloads.Load() == 0 {
		t.Fatal("probe never saw an Overloaded reply: the flood did not saturate admission")
	}

	// The shed transaction must be in /traces, forced with reason overload.
	req := httptest.NewRequest(http.MethodGet, "/traces?n=256", nil)
	rec := httptest.NewRecorder()
	trace.TracesHandler(cl.Tracer()).ServeHTTP(rec, req)
	var doc tracesDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/traces JSON: %v", err)
	}
	for _, tr := range doc.Traces {
		if slices.Contains(tr.Forced, "overload") {
			return
		}
	}
	t.Fatalf("no overload-forced trace among %d traces", len(doc.Traces))
}
