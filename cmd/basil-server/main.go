// Command basil-server runs Basil replicas over TCP for a real
// multi-process deployment. A deployment is described by a topology:
// shards, the fault threshold f, and one host:port per replica. Each
// server process hosts the replicas whose host matches -listen.
//
// Example (single machine, one shard, f=1 → 6 replicas in 6 processes):
//
//	for i in $(seq 0 5); do
//	  basil-server -f 1 -shards 1 -replica 0:$i -listen 127.0.0.1:$((7000+i)) \
//	    -peers "$(python -c 'print(",".join(f"0:{j}=127.0.0.1:{7000+j}" for j in range(6)))')" &
//	done
//
// Keys are deterministic from -seed, so all processes agree on the
// registry without a PKI exchange (a real deployment would distribute
// public keys instead; see README).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/replica"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	f := flag.Int("f", 1, "per-shard fault threshold (n = 5f+1)")
	shards := flag.Int("shards", 1, "number of shards")
	which := flag.String("replica", "0:0", "replica to host, as shard:index")
	listen := flag.String("listen", "127.0.0.1:7000", "listen address")
	peers := flag.String("peers", "", "comma-separated shard:index=host:port routes for all replicas")
	seed := flag.Int64("seed", 1, "registry key seed (must match across all nodes)")
	batch := flag.Int("batch", 16, "reply signature batch size")
	maxFrame := flag.Int("maxframe", 16<<20, "largest wire frame in bytes, sent or accepted; must be identical on every node of the deployment (a frame one node sends but another rejects kills the connection)")
	verifyWorkers := flag.Int("verify-workers", 0, "ingest worker pool size: signature verification and message handling run concurrently on this many workers (0 = GOMAXPROCS, 1 = serial message loop)")
	stripes := flag.Int("stripes", 0, "store lock-stripe count; prepares on disjoint key stripes run in parallel (0 = default, 1 = single global key lock)")
	dataDir := flag.String("data-dir", "", "durability directory: stage-1 votes and logged decisions hit a write-ahead log here before any reply, and a restarted server rejoins with its promises intact (empty = in-memory only)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "checkpoint cadence with -data-dir: GC below a clock-derived watermark and snapshot, bounding log and memory growth (0 = never)")
	adminAddr := flag.String("admin-addr", "", "admin HTTP listen address serving /metrics (Prometheus), /stats (JSON) and /healthz (empty = no admin endpoint)")
	maxConns := flag.Int("max-conns", 0, "maximum concurrent inbound TCP connections; further accepts are closed immediately (0 = unlimited)")
	inflight := flag.Int("inflight", 0, "global cap on frames queued across all outbound connections; beyond it sends drop and count in basil_net_frames_dropped_overflow_total (0 = unlimited)")
	dispatchQueue := flag.Int("dispatch-queue", 0, "replica admission cap: messages admitted but not yet processed; arrivals beyond it get an explicit Overloaded{RetryAfter} reply (0 = default 1024, negative = admission disabled)")
	traceSample := flag.Float64("trace-sample", -1, "transaction tracing sample probability in [0,1]; transactions that hit a shed, recovery or fallback are always captured regardless of the rate; span trees served at /traces and /traces/slow on -admin-addr (negative = tracing off)")
	flag.Parse()

	shard, index, err := parseReplica(*which)
	if err != nil {
		log.Fatalf("bad -replica: %v", err)
	}
	book, err := parseBook(*peers)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}

	var tracer *trace.Tracer
	if *traceSample >= 0 {
		tracer = trace.New(trace.Options{SampleRate: *traceSample})
	}

	mreg := metrics.NewRegistry()
	net, err := transport.NewTCPOpts(*listen, book, transport.TCPOptions{
		MaxFrame:    *maxFrame,
		Metrics:     mreg,
		MaxConns:    *maxConns,
		MaxInflight: *inflight,
		Tracer:      tracer,
	})
	if err != nil {
		log.Fatalf("transport: %v", err)
	}
	defer net.Close()

	n := 5**f + 1
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, *shards*n, *seed)
	signerOf := quorum.SignerOf(func(s, i int32) int32 { return s*int32(n) + i })

	r, err := replica.Restore(replica.Config{
		Shard: shard, Index: index, F: *f,
		DeltaMicros:     60_000_000,
		BatchSize:       *batch,
		VerifyWorkers:   *verifyWorkers,
		Stripes:         *stripes,
		CheckpointEvery: *ckptEvery,
		Registry:        reg,
		SignerID:        signerOf(shard, index),
		SignerOf:        signerOf,
		Net:             net,
		Metrics:         mreg,
		DispatchQueue:   *dispatchQueue,
		Tracer:          tracer,
	}, *dataDir)
	if err != nil {
		log.Fatalf("restore %s: %v", *dataDir, err)
	}
	defer r.Close()

	if *adminAddr != "" {
		// The flight recorder is always live (it feeds the mute dump), so
		// /debug/flightrec is served whenever there is an admin endpoint;
		// the span-tree routes need a tracer.
		extra := []metrics.Route{
			{Pattern: "/debug/flightrec", Handler: trace.FlightHandler(r.FlightRecorder())},
		}
		routes := "/metrics, /stats, /healthz, /debug/flightrec"
		if tracer != nil {
			extra = append(extra,
				metrics.Route{Pattern: "/traces", Handler: trace.TracesHandler(tracer)},
				metrics.Route{Pattern: "/traces/slow", Handler: trace.SlowHandler(tracer)},
			)
			routes += ", /traces, /traces/slow"
		}
		admin, err := metrics.StartAdmin(*adminAddr, mreg, r.Health, extra...)
		if err != nil {
			log.Fatalf("admin: %v", err)
		}
		defer admin.Close()
		fmt.Printf("basil-server: admin endpoint on http://%s (%s)\n", admin.Addr(), routes)
	}

	durable := "in-memory"
	if *dataDir != "" {
		durable = "wal at " + *dataDir
	}
	fmt.Printf("basil-server: replica %d.%d listening on %s (n=%d, %d shards, %s)\n",
		shard, index, net.ListenAddr(), n, *shards, durable)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("basil-server: shutting down")
}

func parseReplica(s string) (int32, int32, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want shard:index, got %q", s)
	}
	sh, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	idx, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return int32(sh), int32(idx), nil
}

func parseBook(s string) (map[transport.Addr]string, error) {
	book := make(map[transport.Addr]string)
	if s == "" {
		return book, nil
	}
	for _, entry := range strings.Split(s, ",") {
		kv := strings.SplitN(entry, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("want shard:index=host:port, got %q", entry)
		}
		sh, idx, err := parseReplica(kv[0])
		if err != nil {
			return nil, err
		}
		book[transport.ReplicaAddr(sh, idx)] = kv[1]
	}
	return book, nil
}
