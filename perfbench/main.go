// Command perfbench is the repository's end-to-end benchmark: YCSB-T
// transactions (2 reads + 2 read-modify-writes) driven closed loop
// through the public basil API, with a correctness check of every run and
// a per-layer account on the traced run. README.md says why each
// workload exists and which layer metric should move which end-to-end
// metric. Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload rw-uniform --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/basil"
	"repro/internal/workload"
)

const (
	// loadedSessions is the closed-loop session count of the loaded
	// phase: one per CPU of the 2-CPU host the benchmark is sized for.
	loadedSessions = 2
	// setupRuns is how many clusters a --trace 0 run sets up; setup_s
	// is the median, and the last cluster is measured.
	setupRuns = 5
	// rounds is how many solo-then-loaded rounds a run alternates.
	rounds = 5
	// minLoaded is the fewest loaded-phase commits that resolve a p99
	// with ten samples beyond it. A run short of it on a slow host adds
	// rounds, up to twice as many.
	minLoaded = 1000
	// warmupTxns is each session's transaction count in the warm-up that
	// ends set-up. Sessions warm up one after the other, so no conflict
	// backoff makes set-up time vary.
	warmupTxns = 25
	// traceRing bounds the program tracer's span ring on the traced run:
	// self times are taken over the spans it still holds at the end.
	traceRing = 1 << 16
)

// spec is one workload: the YCSB-T key distribution and the cluster's
// transport and durability. Everything else is basil.Options defaults.
type spec struct {
	name  string
	keys  uint64
	theta float64 // 0 is uniform
	tcp   bool    // TCPLoopback instead of the in-process transport
	wal   bool    // DataDir set: every replica keeps a write-ahead log
}

var specs = []spec{
	{name: "rw-uniform", keys: 20_000},
	{name: "rw-zipf", keys: 10_000, theta: 0.9},
	{name: "rw-uniform-tcp-wal", keys: 20_000, tcp: true, wal: true},
}

func (s spec) generator() workload.Generator {
	return workload.NewYCSB(workload.YCSBConfig{Keys: s.keys, ReadOps: 2, WriteOps: 2, Theta: s.theta})
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "rw-uniform, rw-zipf or rw-uniform-tcp-wal")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same transactions")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per cluster (solo plus loaded phase)")
	flag.IntVar(&traceFlag, "trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer account")
	flag.StringVar(&cfg.root, "root", ".", "checkout root holding BENCHMARK.json; scratch goes under .bench_build")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDefs(root string, traced bool) ([]metricDef, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if traced {
		return bj.PerLayer, nil
	}
	return bj.EndToEnd, nil
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config, out io.Writer) error {
	var sp *spec
	for i := range specs {
		if specs[i].name == cfg.workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	defs, err := loadDefs(cfg.root, cfg.trace)
	if err != nil {
		return err
	}
	scratch := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	walFsync := "device"
	if sp.wal && fsType(scratch) != "tmpfs" {
		// Device flush latency on a shared disk swings several-fold from
		// minute to minute; the WAL is measured as on tmpfs, and device
		// latency is the scenario matrix's slow-disk case.
		if err := noopFsync(); err != nil {
			return fmt.Errorf("WAL dir is on %s, not tmpfs, and fsync cannot be made a no-op: %w", fsType(scratch), err)
		}
		walFsync = "no-op"
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"env": stamp(cfg.root, scratch, walFsync),
		"workload": sp.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace}); err != nil {
		return err
	}
	b := &bench{spec: *sp, gen: sp.generator(), seed: cfg.seed, scratch: scratch,
		solo: time.Duration(cfg.seconds) * time.Second * 3 / 10}
	b.loaded = time.Duration(cfg.seconds)*time.Second - b.solo
	var rep *report
	if cfg.trace {
		rep, err = b.traced()
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"detail": rep.detail}); err != nil {
		return err
	}
	res := result{Correct: rep.checkErr == nil, Attempted: rep.started, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %q, which this run does not measure", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range rep.values {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("measured %q, which BENCHMARK.json does not list", name)
		}
	}
	if rep.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", rep.checkErr)
	}
	return enc.Encode(res)
}

// bench runs one workload.
type bench struct {
	spec         spec
	gen          workload.Generator
	seed         int64
	scratch      string
	solo, loaded time.Duration
	clusters     int
}

// report is what a run measured, before it is matched to BENCHMARK.json.
type report struct {
	values   map[string]float64
	detail   map[string]any
	started  int
	failed   int
	checkErr error
}

// cluster is one set-up cluster, its sessions, and the account of every
// transaction run on it, which the correctness check audits.
type cluster struct {
	sys      *basilSystem
	walDir   string
	gen      workload.Generator
	sessions []*loopSession
	hist     phase
}

// setup builds a cluster, loads the keyspace and runs the warm-up: the
// set-up time is all of it, up to the start of the timed phases.
func (b *bench) setup(tracing bool) (*cluster, time.Duration) {
	runtime.GC()
	b.clusters++
	opts := basil.Options{TCPLoopback: b.spec.tcp}
	if b.spec.wal {
		opts.DataDir = filepath.Join(b.scratch, fmt.Sprintf("wal-%d", b.clusters))
	}
	if tracing {
		opts.Tracing, opts.TraceSample, opts.TraceRing = true, 1, traceRing
	}
	t0 := time.Now()
	sys := &basilSystem{c: basil.NewCluster(opts)}
	b.gen.Populate(sys.Load)
	c := &cluster{sys: sys, walDir: opts.DataDir, gen: b.gen,
		sessions: newLoopSessions(sys, loadedSessions, b.seed)}
	for _, s := range c.sessions {
		c.hist.merge(runCount([]*loopSession{s}, b.gen, warmupTxns))
	}
	return c, time.Since(t0)
}

func (c *cluster) run(sessions int, d time.Duration, traced bool) *phase {
	p := runFor(c.sessions[:sessions], c.gen, d, traced)
	c.hist.merge(p)
	return p
}

func (c *cluster) close() {
	c.sys.Close()
	if c.walDir != "" {
		os.RemoveAll(c.walDir)
	}
}

// measure runs rounds of a solo then a loaded phase on c and returns the
// pooled phases with the counters of the loaded rounds. Interleaving the
// phases over the whole run, rather than running each as one block,
// lets every run sample the host's slow and fast spells alike. between,
// if not nil, runs before each round.
func (c *cluster) measure(b *bench, between func()) (solo, loaded *phase, acct snap, err error) {
	solo, loaded = &phase{Sessions: 1}, &phase{Sessions: loadedSessions}
	for r := 0; r < rounds || (loaded.Commits < minLoaded && r < 2*rounds); r++ {
		if between != nil {
			between()
		}
		solo.merge(c.run(1, b.solo/rounds, false))
		before, err := takeSnap(c.sys, c.walDir)
		if err != nil {
			return nil, nil, acct, err
		}
		loaded.merge(c.run(loadedSessions, b.loaded/rounds, false))
		after, err := takeSnap(c.sys, c.walDir)
		if err != nil {
			return nil, nil, acct, err
		}
		acct = acct.add(after.sub(before))
	}
	return solo, loaded, acct, nil
}

// p99 is the 0.99 quantile, refused when fewer than ten samples lie
// beyond it.
func p99(name string, xs []float64) (float64, error) {
	v, ok := quantile(xs, 0.99, 10)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than 10 beyond p99; raise --seconds", name, len(xs))
	}
	return v, nil
}

// endToEnd sets up setupRuns clusters and measures the last one;
// setup_s is the median of the set-ups.
func (b *bench) endToEnd() (*report, error) {
	setups := make([]float64, setupRuns)
	var c *cluster
	for i := range setups {
		if c != nil {
			c.close()
		}
		var d time.Duration
		c, d = b.setup(false)
		setups[i] = d.Seconds()
	}
	defer c.close()
	runtime.GC() // the closed clusters' garbage is set-up's cost, not the phases'
	solo, loaded, acct, err := c.measure(b, nil)
	if err != nil {
		return nil, err
	}
	heapMB := heapLiveMB()
	latP99, err := p99("lat_p99_ms", loaded.LatMs)
	if err != nil {
		return nil, err
	}
	chk := checkHistory(c.sys, c.hist.Committed, c.hist.Unsure, b.seed)
	rep := &report{checkErr: chk.Err}
	rep.account(&c.hist, chk)
	rep.values = map[string]float64{
		"tput_txps":       loaded.tput(),
		"lat_p50_ms":      median(loaded.LatMs),
		"lat_p99_ms":      latP99,
		"solo_lat_p50_ms": median(solo.LatMs),
		"cpu_ms_per_txn":  ratio(ms(acct.cpu), float64(loaded.Commits)),
		"commit_rate":     loaded.commitRate(),
		"fail_rate":       failRateUpper(rep.failed, rep.started),
		"heap_live_mb":    heapMB,
		"setup_s":         median(setups),
	}
	rep.detail = map[string]any{
		"setup_s_samples": setups,
		"solo":            phaseDetail(solo),
		"loaded":          phaseDetail(loaded),
		"check":           checkDetail(chk),
	}
	return rep, nil
}

// traced measures an untraced cluster for the counters and, in
// alternating rounds, a cluster with the program's tracer on, whose
// loaded rounds record the spans.
func (b *bench) traced() (*report, error) {
	c, _ := b.setup(false)
	defer c.close()
	t, _ := b.setup(true)
	defer t.close()
	runtime.GC()
	tl := &phase{Sessions: loadedSessions}
	solo, loaded, acct, err := c.measure(b, func() {
		tl.merge(t.run(loadedSessions, b.loaded/rounds, true))
	})
	if err != nil {
		return nil, err
	}
	if len(loaded.Committed) == 0 {
		return nil, errors.New("no transaction committed in the loaded phase")
	}
	commitP99, err := p99("client.commit_ms_p99", loaded.CommitMs)
	if err != nil {
		return nil, err
	}
	vals := layerAccount(acct, loaded.Commits)
	vals["client.read_ms_p50"] = median(loaded.ReadMs)
	vals["client.commit_ms_p50"] = median(loaded.CommitMs)
	vals["client.commit_ms_p99"] = commitP99
	vals["client.solo_read_ms_p50"] = median(solo.ReadMs)
	vals["client.solo_commit_ms_p50"] = median(solo.CommitMs)
	vals["client.attempts_per_commit"] = ratio(float64(loaded.Attempts), float64(loaded.Commits))
	versions, keys := 0, 0
	for i := 0; i < c.sys.c.ReplicaCount(); i++ {
		st := c.sys.c.Replica(0, i).Store().StatsSnapshot()
		versions, keys = versions+st.Versions, keys+st.Keys
	}
	vals["store.versions_per_key"] = ratio(float64(versions), float64(keys))

	meta := loaded.Committed[0]
	signUs, verifyUs, err := cryptoUs(meta, b.seed)
	if err != nil {
		return nil, err
	}
	vals["cryptoutil.sign_us"] = signUs
	vals["cryptoutil.verify_us"] = verifyUs
	vals["cryptoutil.cpu_share"] = ratio((vals["replica.sigs_signed_per_txn"]*signUs+
		vals["replica.sigs_verified_per_txn"]*verifyUs)/1e3, ms(acct.cpu)/float64(loaded.Commits))
	vals["types.codec_us_per_txn"] = 0
	if b.spec.tcp {
		if vals["types.codec_us_per_txn"], err = codecUsPerTxn(meta, c.sys.c.ReplicaCount(), b.seed); err != nil {
			return nil, err
		}
	}

	own := selfMs(tl.Spans)
	prog := selfMs(fromTracer(t.sys.c.Tracer().Spans()))
	for _, name := range []string{"txn", "client.read", "client.commit"} {
		vals["trace.self_ms_p50."+name] = median(own[name])
	}
	for _, name := range []string{"client.prepare", "client.st2", "client.writeback", "net.queue",
		"replica.dispatch_wait", "replica.check", "replica.verify"} {
		vals["trace.self_ms_p50."+name] = median(prog[name])
	}
	vals["trace.dark_frac"] = darkFrac(tl.Spans)
	vals["trace.overhead_frac"] = 1 - tl.tput()/loaded.tput()

	chk := checkHistory(c.sys, c.hist.Committed, c.hist.Unsure, b.seed)
	tchk := checkHistory(t.sys, t.hist.Committed, t.hist.Unsure, b.seed)
	rep := &report{values: vals, checkErr: errors.Join(chk.Err, tchk.Err)}
	rep.account(&c.hist, chk)
	rep.account(&t.hist, tchk)
	rep.detail = map[string]any{
		"solo":         phaseDetail(solo),
		"loaded":       phaseDetail(loaded),
		"traced":       phaseDetail(tl),
		"check":        checkDetail(chk),
		"traced_check": checkDetail(tchk),
		"own_spans":    len(tl.Spans),
	}
	return rep, nil
}

// account adds a cluster's whole history to the run's totals: every
// transaction begun, and those failed by the program or by the check.
func (r *report) account(h *phase, chk checkResult) {
	r.started += h.Started
	r.failed += min(h.Failed+chk.Bad, h.Started)
}

func phaseDetail(p *phase) map[string]any {
	return map[string]any{
		"sessions": p.Sessions, "seconds": p.Elapsed.Seconds(), "started": p.Started,
		"attempts": p.Attempts, "commits": p.Commits, "retried": p.Retried, "failed": p.Failed,
		"lat_samples": len(p.LatMs),
	}
}

func checkDetail(c checkResult) map[string]any {
	d := map[string]any{"dsg_txns": c.Committed, "audited_keys": c.Audited, "bad": c.Bad}
	if c.Err != nil {
		d["error"] = c.Err.Error()
	}
	return d
}
