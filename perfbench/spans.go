package main

import (
	"sort"
	"time"

	"repro/internal/trace"
)

// span is one timed interval of a transaction: the benchmark's own spans
// around each call into basil, or a span of the program's tracer. Spans
// of one transaction share Txn; Parent 0 marks a root.
type span struct {
	Txn        uint64
	ID, Parent uint64
	Name       string
	Start, End int64 // UnixNano
}

// spanRec hands out span ids for one transaction and keeps its spans in
// memory when the phase is traced.
type spanRec struct {
	on   bool
	txn  uint64
	next *uint64
}

func (r spanRec) id() uint64 {
	*r.next++
	return *r.next
}

func (r spanRec) add(p *phase, id, parent uint64, name string, t0, t1 time.Time) {
	if r.on {
		p.Spans = append(p.Spans, span{Txn: r.txn, ID: id, Parent: parent, Name: name,
			Start: t0.UnixNano(), End: t1.UnixNano()})
	}
}

// fromTracer converts the program tracer's spans. Its replica-side spans
// carry parent 0, meaning the trace's root, so they are re-parented onto
// the root span when the ring still holds it.
func fromTracer(ss []*trace.Span) []span {
	roots := make(map[uint64]uint64)
	for _, s := range ss {
		if s.Name == trace.RootSpan {
			roots[s.TraceID] = s.SpanID
		}
	}
	out := make([]span, 0, len(ss))
	for _, s := range ss {
		if s.End < s.Start {
			continue
		}
		parent := s.Parent
		if parent == 0 && s.Name != trace.RootSpan {
			parent = roots[s.TraceID]
		}
		out = append(out, span{Txn: s.TraceID, ID: s.SpanID, Parent: parent, Name: s.Name,
			Start: s.Start, End: s.End})
	}
	return out
}

type spanKey struct{ txn, id uint64 }

func childrenOf(spans []span) map[spanKey][]span {
	kids := make(map[spanKey][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			k := spanKey{s.Txn, s.Parent}
			kids[k] = append(kids[k], s)
		}
	}
	return kids
}

// covered returns how much of [start, end) the union of kids covers.
func covered(start, end int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, start), min(k.End, end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// selfMs returns, per span name, each span's self time in ms: its
// duration minus the part of it its children cover.
func selfMs(spans []span) map[string][]float64 {
	kids := childrenOf(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, kids[spanKey{s.Txn, s.ID}])
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// darkFrac is the share of all "txn" spans' time that none of their
// children covers: time inside a transaction no span explains.
func darkFrac(spans []span) float64 {
	kids := childrenOf(spans)
	var total, dark int64
	for _, s := range spans {
		if s.Name != "txn" {
			continue
		}
		d := s.End - s.Start
		total += d
		dark += d - covered(s.Start, s.End, kids[spanKey{s.Txn, s.ID}])
	}
	return ratio(float64(dark), float64(total))
}
