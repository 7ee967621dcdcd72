package wal_test

import (
	"flag"
	"sync"
	"testing"
	"time"

	"repro/internal/benchharness"
	"repro/internal/wal"
)

// walBenchOut makes `go test -run TestWriteWALBench` write the
// group-commit sweep as JSON (used by `make bench` to record the perf
// trajectory in BENCH_wal.json). Empty = skipped.
var walBenchOut = flag.String("walbench", "", "write the WAL group-commit benchmark results as JSON to this file")

// voteRecord is roughly a vote record: tag+txid+vote+small meta.
var voteRecord = make([]byte, 192)

// benchAppend runs total appends of a vote-sized record split across
// `appenders` goroutines against a fresh log, returning wall time and
// the log's final counters.
func benchAppend(dir string, appenders, total int) (time.Duration, wal.Stats, error) {
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return 0, wal.Stats{}, err
	}
	per := total / appenders
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	start := time.Now()
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(voteRecord); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := l.StatsSnapshot()
	cerr := l.Close()
	select {
	case err := <-errs:
		return elapsed, st, err
	default:
	}
	return elapsed, st, cerr
}

// BenchmarkWALAppend measures one durable append under GOMAXPROCS
// concurrent appenders sharing group commits (`make bench`).
func BenchmarkWALAppend(b *testing.B) {
	l, _, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Append(voteRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if st := l.StatsSnapshot(); st.Appends > 0 {
		b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "fsyncs/append")
	}
}

// walBenchRow is one row of BENCH_wal.json.
type walBenchRow struct {
	Appenders       int     `json:"appenders"`
	Appends         uint64  `json:"appends"`
	Fsyncs          uint64  `json:"fsyncs"`
	FsyncsPerAppend float64 `json:"fsyncs_per_append"`
	AppendsPerSec   float64 `json:"appends_per_sec"`
	UsPerAppend     float64 `json:"us_per_append"`
}

// TestWriteWALBench sweeps appender counts over 4096 vote-sized durable
// appends and records the fsync amortization curve under the shared
// BENCH_*.json envelope. It also enforces the acceptance bar in-line:
// from 8 concurrent appenders up, durability must cost strictly less
// than one fsync per append. Skipped unless -walbench names an output
// file.
func TestWriteWALBench(t *testing.T) {
	if *walBenchOut == "" {
		t.Skip("no -walbench output file given")
	}
	const total = 4096
	var rows []walBenchRow
	for _, appenders := range []int{1, 8, 32} {
		elapsed, st, err := benchAppend(t.TempDir(), appenders, total)
		if err != nil {
			t.Fatalf("appenders=%d: %v", appenders, err)
		}
		row := walBenchRow{
			Appenders:       appenders,
			Appends:         st.Appends,
			Fsyncs:          st.Syncs,
			FsyncsPerAppend: float64(st.Syncs) / float64(st.Appends),
			AppendsPerSec:   float64(st.Appends) / elapsed.Seconds(),
			UsPerAppend:     float64(elapsed.Microseconds()) / float64(st.Appends),
		}
		rows = append(rows, row)
		if appenders >= 8 && row.FsyncsPerAppend >= 1 {
			t.Errorf("group commit failed to amortize: %d appenders: %.3f fsyncs/append",
				appenders, row.FsyncsPerAppend)
		}
		t.Logf("appenders=%-2d %6.0f appends/s  %.3f fsyncs/append",
			appenders, row.AppendsPerSec, row.FsyncsPerAppend)
	}
	if err := benchharness.WriteRecord(*walBenchOut, "wal-group-commit", rows); err != nil {
		t.Fatalf("write %s: %v", *walBenchOut, err)
	}
}
