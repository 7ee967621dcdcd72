package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// procIO is the subset of /proc/self/io the transport account uses:
// bytes passed to write-family syscalls, and their count.
type procIO struct {
	WChar, SyscW uint64
}

func parseProcIO(text string) (procIO, error) {
	var io procIO
	found := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		var dst *uint64
		switch name {
		case "wchar":
			dst = &io.WChar
		case "syscw":
			dst = &io.SyscW
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return io, fmt.Errorf("parse /proc/self/io %s: %w", name, err)
		}
		*dst = v
		found++
	}
	if found != 2 {
		return io, fmt.Errorf("parse /proc/self/io: wchar or syscw missing")
	}
	return io, nil
}

func readProcIO() (procIO, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	return parseProcIO(string(b))
}

// dirBytes sums the sizes of the regular files under dir; "" is 0.
func dirBytes(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clientCounts sums the protocol counters of the sessions' clients.
type clientCounts struct {
	Fast, Slow, Deps, Recoveries, Overloads uint64
}

// snap is every counter the per-layer account reads, taken at one phase
// boundary. The difference of two snaps is the account of the phase
// between them, and accounts of several phases add up.
type snap struct {
	reg      metrics.Snapshot // all replicas' registries, summed
	cli      clientCounts
	walBytes int64
	io       procIO
	cpu      time.Duration
	allocs   uint64  // runtime: heap bytes allocated
	gcCPU    float64 // runtime: GC CPU seconds
	allCPU   float64 // runtime: all CPU seconds
}

// sub returns the change from earlier to s.
func (s snap) sub(earlier snap) snap {
	return snap{
		reg: s.reg.Sub(earlier.reg),
		cli: clientCounts{
			Fast:       s.cli.Fast - earlier.cli.Fast,
			Slow:       s.cli.Slow - earlier.cli.Slow,
			Deps:       s.cli.Deps - earlier.cli.Deps,
			Recoveries: s.cli.Recoveries - earlier.cli.Recoveries,
			Overloads:  s.cli.Overloads - earlier.cli.Overloads,
		},
		walBytes: s.walBytes - earlier.walBytes,
		io:       procIO{WChar: s.io.WChar - earlier.io.WChar, SyscW: s.io.SyscW - earlier.io.SyscW},
		cpu:      s.cpu - earlier.cpu,
		allocs:   s.allocs - earlier.allocs,
		gcCPU:    s.gcCPU - earlier.gcCPU,
		allCPU:   s.allCPU - earlier.allCPU,
	}
}

// add sums two phase accounts.
func (s snap) add(o snap) snap {
	return snap{
		reg: sumSnapshots([]metrics.Snapshot{s.reg, o.reg}),
		cli: clientCounts{
			Fast:       s.cli.Fast + o.cli.Fast,
			Slow:       s.cli.Slow + o.cli.Slow,
			Deps:       s.cli.Deps + o.cli.Deps,
			Recoveries: s.cli.Recoveries + o.cli.Recoveries,
			Overloads:  s.cli.Overloads + o.cli.Overloads,
		},
		walBytes: s.walBytes + o.walBytes,
		io:       procIO{WChar: s.io.WChar + o.io.WChar, SyscW: s.io.SyscW + o.io.SyscW},
		cpu:      s.cpu + o.cpu,
		allocs:   s.allocs + o.allocs,
		gcCPU:    s.gcCPU + o.gcCPU,
		allCPU:   s.allCPU + o.allCPU,
	}
}

var rtSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeSnap(sys *basilSystem, walDir string) (snap, error) {
	var s snap
	var regs []metrics.Snapshot
	for sh := 0; sh < sys.c.Shards(); sh++ {
		for i := 0; i < sys.c.ReplicaCount(); i++ {
			regs = append(regs, sys.c.Replica(sh, i).Metrics().Snapshot())
		}
	}
	s.reg = sumSnapshots(regs)
	for _, c := range sys.clients {
		st := c.Stats()
		s.cli.Fast += st.FastPathTaken.Load()
		s.cli.Slow += st.SlowPathTaken.Load()
		s.cli.Deps += st.DepsAcquired.Load()
		s.cli.Recoveries += st.Recoveries.Load()
		s.cli.Overloads += st.Overloads.Load()
	}
	var err error
	if s.walBytes, err = dirBytes(walDir); err != nil {
		return s, fmt.Errorf("size of wal dir: %w", err)
	}
	if s.io, err = readProcIO(); err != nil {
		return s, err
	}
	s.cpu = processCPU()
	rt := make([]rtmetrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		rt[i].Name = name
	}
	rtmetrics.Read(rt)
	s.allocs = rt[0].Value.Uint64()
	s.gcCPU = rt[1].Value.Float64()
	s.allCPU = rt[2].Value.Float64()
	return s, nil
}

// heapLiveMB forces a collection and returns the live heap it marked.
func heapLiveMB() float64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// sumSnapshots adds registries that share metric names: counters add,
// histograms add bucket-wise. Gauges are dropped.
func sumSnapshots(ss []metrics.Snapshot) metrics.Snapshot {
	counters := make(map[string]metrics.CounterValue)
	hists := make(map[string]metrics.HistValue)
	for _, s := range ss {
		for _, c := range s.Counters {
			k := c.Name + "{" + c.Labels + "}"
			sum := counters[k]
			sum.Name, sum.Labels, sum.Value = c.Name, c.Labels, sum.Value+c.Value
			counters[k] = sum
		}
		for _, h := range s.Hists {
			k := h.Name + "{" + h.Labels + "}"
			sum := hists[k]
			sum.Name, sum.Labels, sum.Hist = h.Name, h.Labels, addHist(sum.Hist, h.Hist)
			hists[k] = sum
		}
	}
	var out metrics.Snapshot
	for _, c := range counters {
		out.Counters = append(out.Counters, c)
	}
	for _, h := range hists {
		out.Hists = append(out.Hists, h)
	}
	return out
}

func addHist(a, b metrics.HistSnapshot) metrics.HistSnapshot {
	byLower := make(map[uint64]metrics.Bucket)
	for _, bk := range append(append([]metrics.Bucket(nil), a.Buckets...), b.Buckets...) {
		cur := byLower[bk.LowerNanos]
		cur.LowerNanos, cur.UpperNanos, cur.Count = bk.LowerNanos, bk.UpperNanos, cur.Count+bk.Count
		byLower[bk.LowerNanos] = cur
	}
	out := metrics.HistSnapshot{Count: a.Count + b.Count, SumNanos: a.SumNanos + b.SumNanos}
	for _, bk := range byLower {
		out.Buckets = append(out.Buckets, bk)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].LowerNanos < out.Buckets[j].LowerNanos })
	return out
}

func counter(s metrics.Snapshot, name, labels string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name && c.Labels == labels {
			return c.Value
		}
	}
	return 0
}

func hist(s metrics.Snapshot, name, labels string) metrics.HistSnapshot {
	for _, h := range s.Hists {
		if h.Name == name && h.Labels == labels {
			return h.Hist
		}
	}
	return metrics.HistSnapshot{}
}

// layerAccount turns the account of the loaded phase into the per-layer
// metrics that come from counters; commits normalises them.
func layerAccount(d snap, commits int) map[string]float64 {
	c := func(name string, labels ...string) float64 {
		return float64(counter(d.reg, name, strings.Join(labels, ",")))
	}
	p50us := func(name, labels string) float64 { return hist(d.reg, name, labels).Quantile(0.5) / 1e3 }
	n := float64(commits)
	perTxn := func(v float64) float64 { return ratio(v, n) }
	perK := func(v float64) float64 { return ratio(1000*v, n) }

	walBytes := float64(d.walBytes)
	votesC := c("basil_replica_votes_total", `vote="commit"`)
	votesA := c("basil_replica_votes_total", `vote="abort"`)
	m := map[string]float64{
		"client.fastpath_share":      ratio(float64(d.cli.Fast), float64(d.cli.Fast+d.cli.Slow)),
		"client.deps_per_ktxn":       perK(float64(d.cli.Deps)),
		"client.recoveries_per_ktxn": perK(float64(d.cli.Recoveries)),
		"client.overloads_per_ktxn":  perK(float64(d.cli.Overloads)),

		"replica.msgs_in_per_txn": perTxn(c("basil_replica_reads_total") + c("basil_replica_st1_total") +
			c("basil_replica_st2_total") + c("basil_replica_writebacks_total")),
		"replica.vote_abort_frac":       ratio(votesA, votesA+votesC),
		"replica.dep_waits_per_ktxn":    perK(c("basil_replica_dep_waits_total")),
		"replica.shed_total":            c("basil_replica_shed_total"),
		"replica.sigs_signed_per_txn":   perTxn(c("basil_replica_sigs_signed_total")),
		"replica.sigs_verified_per_txn": perTxn(c("basil_replica_sigs_verified_total")),

		"store.prepare_ok_frac":         ratio(c("basil_store_prepare_ok_total"), c("basil_store_prepares_total")),
		"store.rts_rejections_per_ktxn": perK(c("basil_store_rts_rejections_total")),

		"wal.appends_per_txn": perTxn(c("basil_wal_appends_total")),
		"wal.group_size":      ratio(c("basil_wal_appends_total"), c("basil_wal_fsyncs_total")),
		"wal.append_ms_p50":   p50us("basil_wal_append_latency_seconds", "") / 1e3,
		"wal.bytes_per_txn":   perTxn(walBytes),

		"transport.write_bytes_per_txn":    perTxn(float64(d.io.WChar) - walBytes),
		"transport.write_syscalls_per_txn": perTxn(float64(d.io.SyscW)),

		"runtime.alloc_bytes_per_txn": perTxn(float64(d.allocs)),
		"runtime.gc_cpu_frac":         ratio(d.gcCPU, d.allCPU),
	}
	for _, kind := range []string{"read", "st1", "st2", "writeback"} {
		m["replica.deliver_us_p50."+kind] = p50us("basil_replica_deliver_latency_seconds", `kind="`+kind+`"`)
	}
	return m
}
