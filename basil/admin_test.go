package basil_test

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/replica"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestAdminEndpointE2E is the operational loop basil-server -admin-addr
// promises: start a real TCP shard whose first replica shares one
// metrics registry with its transport, serve the admin endpoints over
// HTTP, run a transaction through the cluster, and watch the counters
// move in /metrics and /stats while /healthz tracks the replica
// lifecycle (serving -> closed).
func TestAdminEndpointE2E(t *testing.T) {
	const f = 1
	n := 5*f + 1
	book := map[transport.Addr]string{}
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, n, 1)
	signerOf := quorum.SignerOf(func(s, i int32) int32 { return i })

	// Replica 0 is the "server process" under observation: its transport
	// and replica register on the same metrics registry, exactly as
	// cmd/basil-server wires them.
	mreg := metrics.NewRegistry()
	var nets []*transport.TCP
	for i := 0; i < n; i++ {
		opts := transport.TCPOptions{}
		if i == 0 {
			opts.Metrics = mreg
		}
		tn, err := transport.NewTCPOpts("127.0.0.1:0", book, opts)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, tn)
		book[transport.ReplicaAddr(0, int32(i))] = tn.ListenAddr()
	}
	var reps []*replica.Replica
	defer func() {
		for _, r := range reps {
			r.Close()
		}
		for _, tn := range nets {
			tn.Close()
		}
	}()
	for i := 0; i < n; i++ {
		cfg := replica.Config{
			Shard: 0, Index: int32(i), F: f,
			Registry: reg,
			SignerID: int32(i),
			SignerOf: signerOf,
			Net:      nets[i],
		}
		if i == 0 {
			cfg.Metrics = mreg
		}
		r := replica.New(cfg)
		r.LoadGenesis("acct", []byte("100"))
		reps = append(reps, r)
	}

	admin, err := metrics.StartAdmin("127.0.0.1:0", mreg, reps[0].Health)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
	promValue := func(body, metric string) uint64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric) + ` (\d+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("metric %s not in exposition:\n%s", metric, body)
		}
		v, _ := strconv.ParseUint(m[1], 10, 64)
		return v
	}

	// Before any traffic: healthy, zero ST1s.
	if code, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz before: %d %s", code, body)
	}
	_, before := get("/metrics")
	if v := promValue(before, "basil_replica_st1_total"); v != 0 {
		t.Fatalf("st1_total before any traffic = %d", v)
	}

	// One committed read-modify-write transaction through the shard.
	clientNet, err := transport.NewTCP("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer clientNet.Close()
	cl := client.New(client.Config{
		ID: 700, F: f, NumShards: 1,
		ShardOf:  func(string) int32 { return 0 },
		Registry: reg, SignerOf: signerOf, Net: clientNet,
	})
	tx := cl.Begin()
	if _, err := tx.Read("acct"); err != nil {
		t.Fatalf("read: %v", err)
	}
	tx.Write("acct", []byte("85"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// After the transaction the protocol, store, and wire counters must
	// all have moved.
	_, after := get("/metrics")
	// (reads fan out to only ReadWait+f of the 5f+1 replicas at a
	// rotating offset, so replica 0 need not see one — ST1, which
	// broadcasts shard-wide, is the counter that must move everywhere.)
	for _, metric := range []string{
		"basil_replica_st1_total",
		"basil_store_prepares_total",
		"basil_store_prepare_ok_total",
		`basil_net_frames_total{dir="in"}`,
		`basil_net_frames_total{dir="out"}`,
	} {
		if v := promValue(after, metric); v == 0 {
			t.Errorf("%s did not move after a committed transaction", metric)
		}
	}
	if v := promValue(after, `basil_replica_votes_total{vote="commit"}`); v == 0 {
		t.Error("no commit vote counted")
	}

	// /stats: valid JSON whose deliver-latency histogram saw the ST1.
	code, statsBody := get("/stats")
	if code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	var stats struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name   string  `json:"name"`
			Labels string  `json:"labels"`
			Count  uint64  `json:"count"`
			P50Ms  float64 `json:"p50_ms"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v\n%s", err, statsBody)
	}
	sawDeliver := false
	for _, h := range stats.Histograms {
		if h.Name == "basil_replica_deliver_latency_seconds" && h.Labels == `kind="st1"` {
			sawDeliver = true
			if h.Count == 0 {
				t.Error("st1 deliver-latency histogram empty after a commit")
			}
		}
	}
	if !sawDeliver {
		t.Fatalf("no st1 deliver-latency histogram in /stats:\n%s", statsBody)
	}

	// Lifecycle: a closed replica reports unhealthy with state "closed".
	reps[0].Close()
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !regexp.MustCompile(`"closed"`).MatchString(body) {
		t.Fatalf("/healthz after close: %d %s", code, body)
	}
}

// TestAdminEndpointMethodsAndContentTypes pins the HTTP contract of every
// admin route, tracing routes included: GET answers with the right
// Content-Type; anything else is refused with 405 and an Allow header.
// All admin endpoints are read-only views — a POST reaching one is a
// client bug that must fail loudly, not be silently served.
func TestAdminEndpointMethodsAndContentTypes(t *testing.T) {
	tr := trace.New(trace.Options{SampleRate: 1})
	fr := trace.NewFlightRecorder("r0.0", 8)
	admin, err := metrics.StartAdmin("127.0.0.1:0", metrics.NewRegistry(), nil,
		metrics.Route{Pattern: "/traces", Handler: trace.TracesHandler(tr)},
		metrics.Route{Pattern: "/traces/slow", Handler: trace.SlowHandler(tr)},
		metrics.Route{Pattern: "/debug/flightrec", Handler: trace.FlightHandler(fr)},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr()

	cases := []struct{ path, wantCT string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/stats", "application/json"},
		{"/healthz", "application/json"},
		{"/traces", "application/json"},
		{"/traces/slow", "application/json"},
		{"/debug/flightrec", "application/json"},
	}
	for _, c := range cases {
		resp, err := http.Get(base + c.path)
		if err != nil {
			t.Fatalf("GET %s: %v", c.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", c.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != c.wantCT {
			t.Errorf("GET %s: Content-Type %q, want %q", c.path, ct, c.wantCT)
		}

		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, _ := http.NewRequest(method, base+c.path, strings.NewReader("x"))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, c.path, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, c.path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
				t.Errorf("%s %s: Allow %q, want %q", method, c.path, allow, http.MethodGet)
			}
		}
	}
}
