package benchharness

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/tapir"
	"repro/internal/transport"
	"repro/internal/txbase"
	"repro/internal/workload"
)

// Scale groups the knobs that shrink the paper's cluster-scale experiments
// to a single machine. The shapes (ratios, crossovers) are the
// reproduction target; absolute tx/s are not (see docs/benchmarking.md).
type Scale struct {
	Clients    int
	Warmup     time.Duration
	Measure    time.Duration
	YCSBKeys   uint64
	Accounts   uint64 // smallbank
	Users      uint64 // retwis
	TPCC       workload.TPCCConfig
	FaultRates []float64 // fig 7 x-axis points
}

// Quick is the CI-friendly scale: seconds per experiment.
func Quick() Scale {
	return Scale{
		Clients:  8,
		Warmup:   200 * time.Millisecond,
		Measure:  time.Second,
		YCSBKeys: 20_000,
		Accounts: 20_000,
		Users:    2_000,
		TPCC: workload.TPCCConfig{
			Warehouses: 2, Districts: 4, CustomersPer: 60, Items: 400, StockOrders: 3,
		},
		FaultRates: []float64{0, 0.2, 0.4},
	}
}

// Full is the longer-running scale for the cmd tool.
func Full() Scale {
	return Scale{
		Clients:  16,
		Warmup:   time.Second,
		Measure:  5 * time.Second,
		YCSBKeys: 200_000,
		Accounts: 200_000,
		Users:    10_000,
		TPCC: workload.TPCCConfig{
			Warehouses: 4, Districts: 10, CustomersPer: 300, Items: 2_000, StockOrders: 5,
		},
		FaultRates: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
	}
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// --- system factories ---

// NewBasil builds a populated Basil system.
func NewBasil(gen workload.Generator, opts basil.Options) *BasilSystem {
	sys := &BasilSystem{C: basil.NewCluster(opts)}
	Populate(sys, gen)
	return sys
}

// NewBasilTCP builds a populated Basil system whose replicas and clients
// each run on their own TCP transport over loopback, so every protocol
// message crosses the framed canonical wire codec exactly as in a real
// multi-process deployment.
func NewBasilTCP(gen workload.Generator, opts basil.Options) *BasilSystem {
	opts.Net = nil
	opts.TCPLoopback = true
	sys := &BasilSystem{C: basil.NewCluster(opts), Label: "Basil/TCP"}
	Populate(sys, gen)
	return sys
}

// NewTapir builds a populated TAPIR system.
func NewTapir(gen workload.Generator, shards int) *TapirSystem {
	sys := &TapirSystem{C: tapir.NewCluster(tapir.Config{F: 1, Shards: shards})}
	Populate(sys, gen)
	return sys
}

// NewTxBase builds a populated ordered-log baseline.
func NewTxBase(gen workload.Generator, kind txbase.Kind, shards int) *TxBaseSystem {
	sys := &TxBaseSystem{C: txbase.NewCluster(kind, txbase.ClusterConfig{F: 1, Shards: shards})}
	Populate(sys, gen)
	return sys
}

func (s Scale) runCfg() RunConfig {
	return RunConfig{Clients: s.Clients, Warmup: s.Warmup, Measure: s.Measure}
}

// workloadsFor44 builds the three Fig. 4 application workloads.
func (s Scale) workloadsFor44() []workload.Generator {
	return []workload.Generator{
		workload.NewTPCC(s.TPCC),
		workload.NewSmallbank(workload.SmallbankConfig{Accounts: s.Accounts}),
		workload.NewRetwis(workload.RetwisConfig{Users: s.Users}),
	}
}

// Fig4 reproduces Figures 4a (peak throughput) and 4b (mean latency at
// peak) across TAPIR, Basil, TxHotstuff and TxBFT-SMaRt on TPC-C,
// Smallbank and Retwis.
func Fig4(s Scale) []Table {
	tput := Table{Title: "Fig 4a: application throughput (tx/s)",
		Header: []string{"workload", "TAPIR", "Basil", "TxHotstuff", "TxBFT-SMaRt"}}
	lat := Table{Title: "Fig 4b: mean latency (ms)",
		Header: []string{"workload", "TAPIR", "Basil", "TxHotstuff", "TxBFT-SMaRt"}}
	clientCounts := []int{s.Clients, s.Clients * 3}
	for _, gen := range s.workloadsFor44() {
		batch := BatchSize
		if gen.Name() == "tpcc" {
			batch = 4 // the paper's contended-workload batch size
		}
		factories := []func() System{
			func() System { return NewTapir(gen, 1) },
			func() System { return NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: batch}) },
			func() System { return NewTxBase(gen, txbase.KindHotStuff, 1) },
			func() System { return NewTxBase(gen, txbase.KindPBFT, 1) },
		}
		trow := []string{gen.Name()}
		lrow := []string{gen.Name()}
		for _, mk := range factories {
			// Peak-throughput methodology: sweep client counts, report
			// the best (paper §6.1).
			best, _ := FindPeak(mk, gen, clientCounts, s.runCfg())
			trow = append(trow, f1(best.Throughput))
			lrow = append(lrow, f2(best.MeanLatMs))
		}
		tput.Rows = append(tput.Rows, trow)
		lat.Rows = append(lat.Rows, lrow)
	}
	return []Table{tput, lat}
}

// ycsbRWU and ycsbRWZ are the §6.2 microbenchmarks (2 reads + 2 writes).
func (s Scale) ycsbRWU() workload.Generator {
	return workload.NewYCSB(workload.YCSBConfig{Keys: s.YCSBKeys, ReadOps: 2, WriteOps: 2})
}

func (s Scale) ycsbRWZ() workload.Generator {
	return workload.NewYCSB(workload.YCSBConfig{Keys: s.YCSBKeys, ReadOps: 2, WriteOps: 2, Theta: 0.9})
}

// Fig5a reproduces the signature-cost ablation: Basil vs Basil-NoProofs on
// RW-U and RW-Z.
func Fig5a(s Scale) Table {
	t := Table{Title: "Fig 5a: impact of signatures (tx/s)",
		Header: []string{"workload", "Basil", "Basil-NoProofs", "speedup"}}
	for _, gen := range []workload.Generator{s.ycsbRWU(), s.ycsbRWZ()} {
		with := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: BatchSize})
		r1 := Run(with, gen, s.runCfg())
		with.Close()
		without := NewBasil(gen, basil.Options{F: 1, Shards: 1, NoSignatures: true})
		r2 := Run(without, gen, s.runCfg())
		without.Close()
		sp := 0.0
		if r1.Throughput > 0 {
			sp = r2.Throughput / r1.Throughput
		}
		t.Rows = append(t.Rows, []string{gen.Name(), f1(r1.Throughput), f1(r2.Throughput), f2(sp)})
	}
	return t
}

// Fig5b reproduces the read-quorum experiment: latency/throughput of a
// 24-op read-only workload when waiting for 1, f+1 or 2f+1 read replies.
func Fig5b(s Scale) Table {
	t := Table{Title: "Fig 5b: impact of read quorum size (read-only, 24 ops)",
		Header: []string{"quorum", "clients", "tput (tx/s)", "mean lat (ms)"}}
	gen := workload.ReadOnlyYCSB(s.YCSBKeys, 24)
	f := 1
	for _, q := range []struct {
		label string
		wait  int
	}{{"one read", 1}, {"f+1 reads", f + 1}, {"2f+1 reads", 2*f + 1}} {
		for _, mult := range []int{1, 2, 4} {
			sys := NewBasil(gen, basil.Options{F: f, Shards: 1, BatchSize: BatchSize, ReadWait: q.wait})
			cfg := s.runCfg()
			cfg.Clients = s.Clients * mult / 2
			if cfg.Clients < 1 {
				cfg.Clients = 1
			}
			r := Run(sys, gen, cfg)
			sys.Close()
			t.Rows = append(t.Rows, []string{q.label, fmt.Sprint(cfg.Clients), f1(r.Throughput), f2(r.MeanLatMs)})
		}
	}
	return t
}

// Fig5c reproduces shard scaling on the RW-U workload (3 reads + 3
// writes): Basil vs Basil-NoProofs at 1..3 shards.
func Fig5c(s Scale) Table {
	t := Table{Title: "Fig 5c: impact of shard count (RW-U, 3R3W)",
		Header: []string{"shards", "Basil", "Basil-NoProofs"}}
	gen := workload.NewYCSB(workload.YCSBConfig{Keys: s.YCSBKeys, ReadOps: 3, WriteOps: 3})
	for shards := 1; shards <= 3; shards++ {
		with := NewBasil(gen, basil.Options{F: 1, Shards: shards, BatchSize: BatchSize})
		r1 := Run(with, gen, s.runCfg())
		with.Close()
		without := NewBasil(gen, basil.Options{F: 1, Shards: shards, NoSignatures: true})
		r2 := Run(without, gen, s.runCfg())
		without.Close()
		t.Rows = append(t.Rows, []string{fmt.Sprint(shards), f1(r1.Throughput), f1(r2.Throughput)})
	}
	return t
}

// Fig6a reproduces the fast-path ablation: Basil vs Basil-NoFP on RW-U and
// RW-Z.
func Fig6a(s Scale) Table {
	t := Table{Title: "Fig 6a: fast path impact (tx/s)",
		Header: []string{"workload", "Basil-NoFP", "Basil", "gain"}}
	for _, gen := range []workload.Generator{s.ycsbRWU(), s.ycsbRWZ()} {
		nofp := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: BatchSize, DisableFastPath: true})
		r1 := Run(nofp, gen, s.runCfg())
		nofp.Close()
		fp := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: BatchSize})
		r2 := Run(fp, gen, s.runCfg())
		fp.Close()
		gain := 0.0
		if r1.Throughput > 0 {
			gain = (r2.Throughput - r1.Throughput) / r1.Throughput * 100
		}
		t.Rows = append(t.Rows, []string{gen.Name(), f1(r1.Throughput), f1(r2.Throughput), f1(gain) + "%"})
	}
	return t
}

// Fig6b reproduces the batching sweep: throughput vs signature batch size.
// Read replies carry MACs, not signatures, so only the ST1, ST2 and
// fallback replies ride in the Merkle batches.
func Fig6b(s Scale) Table {
	t := Table{Title: "Fig 6b: throughput vs batch size (tx/s)",
		Header: []string{"workload", "b=1", "b=2", "b=4", "b=8", "b=16", "b=32"}}
	for _, gen := range []workload.Generator{s.ycsbRWU(), s.ycsbRWZ()} {
		row := []string{gen.Name()}
		for _, b := range []int{1, 2, 4, 8, 16, 32} {
			sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: b})
			r := Run(sys, gen, s.runCfg())
			sys.Close()
			row = append(row, f1(r.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7 reproduces the Byzantine-client failure experiments on RW-U (7a)
// and RW-Z (7b): per-correct-client throughput as the fraction of faulty
// transactions grows, for each misbehavior strategy.
func Fig7(s Scale, zipf bool) Table {
	name := "Fig 7a: failures, RW-U"
	gen := s.ycsbRWU()
	if zipf {
		name = "Fig 7b: failures, RW-Z"
		gen = s.ycsbRWZ()
	}
	t := Table{Title: name + " (tx/s per correct client)",
		Header: []string{"mode", "target-rate", "measured-share", "tput/correct", "equivOK"}}
	modes := []struct {
		label string
		mode  client.FaultMode
	}{
		{"stall-early", client.FaultStallEarly},
		{"stall-late", client.FaultStallLate},
		{"equiv-forced", client.FaultEquivForced},
		{"equiv-real", client.FaultEquivReal},
	}
	for _, m := range modes {
		for _, rate := range s.FaultRates {
			opts := basil.Options{F: 1, Shards: 1, BatchSize: BatchSize,
				// Aggressive recovery timeout: correct clients notice
				// stalls quickly (paper §6.4: "correct clients quickly
				// notice stalled transactions and aggressively finish
				// them").
				PhaseTimeout:        50 * time.Millisecond,
				AllowUnvalidatedST2: m.mode == client.FaultEquivForced}
			sys := NewBasil(gen, opts)
			cfg := s.runCfg()
			if rate > 0 {
				cfg.Byz = Byzantine{Clients: s.Clients / 2, Mode: m.mode, Fraction: rate}
			}
			r := Run(sys, gen, cfg)
			sys.Close()
			t.Rows = append(t.Rows, []string{
				m.label, f2(rate), f2(r.FaultShare), f2(r.Throughput / float64(r.Clients)), fmt.Sprint(r.EquivocationsOK),
			})
		}
	}
	return t
}

// FigLatency is a reproduction-aid experiment not in the paper: it
// injects a per-message one-way delay on every link, making round-trip
// count — not CPU — the bottleneck, which is the regime the paper's
// testbed operates in. Under it Basil's single-round-trip fast path beats
// the ordered-log baselines by the paper's mechanism: TxHotstuff pays ~9
// message delays and TxBFT-SMaRt ~5 per ordered operation, twice per
// transaction.
func FigLatency(s Scale, delay time.Duration) Table {
	t := Table{Title: fmt.Sprintf("Latency regime (%v one-way delay): commit latency (ms)", delay),
		Header: []string{"system", "mean", "p50", "p90", "p99", "p99.9", "tput (tx/s)"}}
	gen := workload.NewYCSB(workload.YCSBConfig{Keys: s.YCSBKeys, ReadOps: 2, WriteOps: 2})
	cfg := s.runCfg()
	cfg.Clients = 4

	link := transport.LinkPolicy(func(transport.Addr, transport.Addr, any) (time.Duration, bool) {
		return delay, false
	})
	policy := func(net *transport.Local) { net.SetPolicy(link) }

	bs := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4,
		FastPathWait: 4*delay + 2*time.Millisecond})
	policy(bs.C.Net())
	r := Run(bs, gen, cfg)
	bs.Close()
	t.Rows = append(t.Rows, latencyRow("Basil", r))

	for _, kind := range []txbase.Kind{txbase.KindHotStuff, txbase.KindPBFT} {
		sys := NewTxBase(gen, kind, 1)
		policy(sys.C.Net())
		r := Run(sys, gen, cfg)
		sys.Close()
		t.Rows = append(t.Rows, latencyRow(kind.String(), r))
	}
	return t
}

// latencyRow renders one system's full percentile ladder (ms).
func latencyRow(name string, r Result) []string {
	return []string{name, f2(r.MeanLatMs), f2(r.P50LatMs), f2(r.P90LatMs),
		f2(r.P99LatMs), f2(r.P999LatMs), f1(r.Throughput)}
}

// FigDurability is a reproduction-aid experiment not in the paper: it
// runs a whole durable Basil cluster (every vote and decision logged
// before the reply that externalizes it) against the in-memory baseline
// on the same workload, and reports what the WAL's group commit makes
// durability cost per record. One run per configuration read anywhere
// from 405 to 1,638 tx/s on one unchanged tree, wider than the effect,
// so the two configurations alternate over durabilityRounds rounds (a
// fresh cluster each; the first configuration of a round alternates too)
// and the row gives the median throughput with its range. The
// append-level amortization curve across appender counts is
// internal/wal's TestWriteWALBench (BENCH_wal.json).
func FigDurability(s Scale) Table {
	t := Table{Title: "Durability: durable vs in-memory cluster",
		Header: []string{"config", "tput median (min-max) tx/s", "fsyncs/append"}}
	// Several ingest workers per replica let one worker's group-commit
	// wait overlap the next worker's append — on a single core this
	// interleaving, not parallelism, is what forms the groups.
	gen := s.ycsbRWU()
	cfg := s.runCfg()
	var memTput, durTput []float64
	var appends, syncs uint64
	runMem := func() {
		mem := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: BatchSize, VerifyWorkers: 8})
		memTput = append(memTput, Run(mem, gen, cfg).Throughput)
		mem.Close()
	}
	runDur := func() {
		dir, err := os.MkdirTemp("", "walcluster")
		if err != nil {
			panic(fmt.Sprintf("benchharness: walcluster tmpdir: %v", err))
		}
		defer os.RemoveAll(dir)
		dur := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: BatchSize, VerifyWorkers: 8,
			DataDir: dir})
		durTput = append(durTput, Run(dur, gen, cfg).Throughput)
		for i := 0; i < dur.C.ReplicaCount(); i++ {
			st := dur.C.Replica(0, i).WALStats()
			appends += st.Appends
			syncs += st.Syncs
		}
		dur.Close()
	}
	for round := range durabilityRounds {
		if round%2 == 0 {
			runMem()
			runDur()
		} else {
			runDur()
			runMem()
		}
	}
	per := "n/a"
	if appends > 0 {
		per = fmt.Sprintf("%.3f", float64(syncs)/float64(appends))
	}
	t.Rows = append(t.Rows,
		[]string{"cluster in-memory", spreadOf(memTput).String(), "0"},
		[]string{"cluster durable", spreadOf(durTput).String(), per})
	return t
}

// durabilityRounds is how many runs of each configuration FigDurability
// interleaves.
const durabilityRounds = 3

// Spread is a sample's median (the upper middle for an even count) and
// its range.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func spreadOf(xs []float64) Spread {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Spread{Median: sorted[len(sorted)/2], Min: sorted[0], Max: sorted[len(sorted)-1]}
}

// String formats the spread as "median (min-max)".
func (s Spread) String() string {
	return fmt.Sprintf("%s (%s-%s)", f1(s.Median), f1(s.Min), f1(s.Max))
}

// CommitRates reproduces the §6.1 prose numbers: fast-path rate and commit
// rate per workload for Basil.
func CommitRates(s Scale) Table {
	t := Table{Title: "§6.1 commit & fast-path rates (Basil)",
		Header: []string{"workload", "commit-rate", "fastpath-share"}}
	for _, gen := range s.workloadsFor44() {
		sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: BatchSize})
		r := Run(sys, gen, s.runCfg())
		share := sys.FastPathShare()
		sys.Close()
		t.Rows = append(t.Rows, []string{gen.Name(), f2(r.CommitRate), f2(share)})
	}
	return t
}
