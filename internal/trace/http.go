package trace

import (
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"strconv"
)

// JSONSpan is one node of the span tree served at /traces: offsets are
// relative to the trace root's start, durations are microseconds.
type JSONSpan struct {
	Name     string     `json:"name"`
	Node     string     `json:"node"`
	StartUs  int64      `json:"start_us"`
	DurUs    int64      `json:"dur_us"`
	Attrs    string     `json:"attrs,omitempty"`
	Children []JSONSpan `json:"children,omitempty"`
}

// JSONTrace is one assembled trace: the root transaction span with its
// children nested beneath it.
type JSONTrace struct {
	TraceID     string   `json:"trace_id"`
	Status      string   `json:"status,omitempty"`
	Forced      []string `json:"forced,omitempty"` // every reason that forced capture, first first
	StartUnixNs int64    `json:"start_unix_ns"`
	DurUs       int64    `json:"dur_us"`
	Incomplete  bool     `json:"incomplete,omitempty"` // root span evicted or txn in flight
	Root        JSONSpan `json:"root"`
}

// assemble groups a span-ring snapshot into JSONTrace trees, most recent
// first, at most limit entries. It runs entirely on the snapshot — no
// tracer locks are held while marshaling (snapshot-then-serve).
func assemble(spans []*Span, limit int) []JSONTrace {
	byTrace := map[uint64][]*Span{}
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make([]JSONTrace, 0, len(byTrace))
	for id, ss := range byTrace {
		out = append(out, buildTrace(id, ss))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNs > out[j].StartUnixNs })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// buildTrace turns one trace's spans into a tree. Spans parent to the
// span id they name, or to the root when the parent is 0 or absent
// (replica and transport spans only know the trace id).
func buildTrace(id uint64, ss []*Span) JSONTrace {
	t := JSONTrace{TraceID: hexID(id)}
	var root *Span
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	for _, s := range ss {
		switch s.Name {
		case RootSpan:
			root = s
			t.Status = trimPrefix(s.Attrs, "status=")
		case "trace.forced":
			if r := trimPrefix(s.Attrs, "reason="); !slices.Contains(t.Forced, r) {
				t.Forced = append(t.Forced, r)
			}
		}
	}
	if root == nil {
		// Root evicted from the ring or transaction still in flight:
		// synthesize an envelope so the children are still visible.
		t.Incomplete = true
		root = &Span{TraceID: id, Name: RootSpan}
		for _, s := range ss {
			if root.Start == 0 || s.Start < root.Start {
				root.Start = s.Start
			}
			if s.End > root.End {
				root.End = s.End
			}
		}
	}
	t.StartUnixNs = root.Start
	t.DurUs = (root.End - root.Start) / 1e3
	t.Root = JSONSpan{
		Name: root.Name, Node: root.Node,
		DurUs: (root.End - root.Start) / 1e3, Attrs: root.Attrs,
	}

	// Children in start order; one level of nesting under explicit
	// parents, everything else under the root.
	known := map[uint64]*JSONSpan{root.SpanID: &t.Root}
	for _, s := range ss {
		if s == root {
			continue
		}
		js := JSONSpan{
			Name: s.Name, Node: s.Node,
			StartUs: (s.Start - root.Start) / 1e3,
			DurUs:   (s.End - s.Start) / 1e3,
			Attrs:   s.Attrs,
		}
		p := known[s.Parent]
		if p == nil {
			p = &t.Root
		}
		p.Children = append(p.Children, js)
		if s.SpanID != 0 {
			known[s.SpanID] = &p.Children[len(p.Children)-1]
		}
	}
	return t
}

func trimPrefix(s, prefix string) string {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):]
	}
	return s
}

// TracesHandler serves the recent-traces view: JSON span trees assembled
// from the tracer's ring, most recent first. ?n= bounds the count
// (default 64).
func TracesHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := 64
		if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n > 0 {
			limit = n
		}
		traces := assemble(t.Spans(), limit)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Traces []JSONTrace `json:"traces"`
		}{traces})
	})
}

// slowTrace is one /traces/slow row: the top-K summary joined with the
// span tree, when the ring still holds the trace's spans.
type slowTrace struct {
	SlowEntry
	DurMs float64    `json:"dur_ms"`
	Trace *JSONTrace `json:"trace,omitempty"`
}

// SlowHandler serves the top-K slowest finished transactions with their
// span trees (trees may be absent when the ring has since evicted the
// spans — the summary row survives regardless).
func SlowHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entries := t.Slow()
		trees := map[string]*JSONTrace{}
		for _, jt := range assemble(t.Spans(), 0) {
			c := jt
			trees[jt.TraceID] = &c
		}
		rows := make([]slowTrace, 0, len(entries))
		for _, e := range entries {
			rows = append(rows, slowTrace{
				SlowEntry: e,
				DurMs:     float64(e.DurNanos) / 1e6,
				Trace:     trees[e.Trace],
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Slow []slowTrace `json:"slow"`
		}{rows})
	})
}

// FlightHandler serves the flight recorders' event rings as JSON, one
// object per recorder. Nil recorders are skipped.
func FlightHandler(recs ...*FlightRecorder) http.Handler {
	type recJSON struct {
		Name   string  `json:"name"`
		Events []Event `json:"events"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		out := make([]recJSON, 0, len(recs))
		for _, f := range recs {
			if f == nil {
				continue
			}
			ev := f.Snapshot()
			if ev == nil {
				ev = []Event{}
			}
			out = append(out, recJSON{Name: f.Name(), Events: ev})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Recorders []recJSON `json:"recorders"`
		}{out})
	})
}
