package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
)

// counterTotal sums every labeled series of one counter family.
func counterTotal(reg *metrics.Registry, name string) uint64 {
	var total uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// flakyListener fails its first `fails` Accept calls with a transient
// error (the shape ECONNABORTED or EMFILE arrive in), then delegates.
type flakyListener struct {
	net.Listener
	fails int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if atomic.AddInt32(&l.fails, -1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: errors.New("connection aborted")}
	}
	return l.Listener.Accept()
}

// TestTCPAcceptLoopSurvivesTransientErrors is the regression test for the
// accept-loop kill bug: Accept returning a transient error (ECONNABORTED
// from a peer resetting mid-handshake, EMFILE under fd pressure) used to
// terminate acceptLoop outright, leaving the server running but
// permanently unable to accept connections. The loop must retry with
// backoff and still serve the next well-behaved client.
func TestTCPAcceptLoopSurvivesTransientErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	book := map[Addr]string{}
	srv, err := NewTCPOpts("", book, TCPOptions{Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Install the flaky listener by hand: the error injection sits between
	// the loop and the socket, exactly where the kernel would fail us.
	srv.ln = &flakyListener{Listener: inner, fails: 3}
	srv.wg.Add(1)
	go srv.acceptLoop()

	replicaAddr := ReplicaAddr(0, 0)
	book[replicaAddr] = inner.Addr().String()
	got := make(chan any, 1)
	srv.Register(replicaAddr, HandlerFunc(func(from Addr, msg any) { got <- msg }))

	cli, err := NewTCP("", book)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Send(ClientAddr(1), replicaAddr, &types.ReadRequest{ReqID: 1, Key: "k"})

	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop died on a transient Accept error: connection never served")
	}
	if n := counterTotal(mreg, "basil_net_accept_retries_total"); n != 3 {
		t.Fatalf("accept_retries = %d, want 3", n)
	}
}

// TestTCPMaxConnsRejectsExcess: with MaxConns=1, a second concurrent
// inbound connection is closed immediately (and counted), and closing the
// first returns the slot.
func TestTCPMaxConnsRejectsExcess(t *testing.T) {
	mreg := metrics.NewRegistry()
	srv, err := NewTCPOpts("127.0.0.1:0", map[Addr]string{}, TCPOptions{MaxConns: 1, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", srv.ListenAddr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	isClosedByPeer := func(c net.Conn) bool {
		c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		_, err := c.Read(make([]byte, 1))
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return false // still open: the read just timed out
		}
		return err != nil
	}

	first := dial()
	defer first.Close()
	// Give the accept loop time to adopt the first connection before the
	// second arrives, so the slot is deterministically taken.
	time.Sleep(50 * time.Millisecond)
	second := dial()
	if !isClosedByPeer(second) {
		t.Fatal("second connection survived past MaxConns=1")
	}
	second.Close()
	if n := counterTotal(mreg, "basil_net_conns_rejected_total"); n == 0 {
		t.Fatal("rejected connection not counted")
	}

	// Returning the slot: close the first, and a new connection must stick.
	first.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c := dial()
		if !isClosedByPeer(c) {
			c.Close()
			return
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("MaxConns slot never returned after the first connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPInflightCapDropsFrames: with MaxInflight set, frames beyond the
// global in-queue budget are shed and counted instead of growing queues.
// A never-completing dial keeps the queued frames pinned.
func TestTCPInflightCapDropsFrames(t *testing.T) {
	mreg := metrics.NewRegistry()
	dst := ReplicaAddr(0, 0)
	cli, err := NewTCPOpts("", map[Addr]string{dst: "127.0.0.1:1"},
		TCPOptions{MaxInflight: 2, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dialStarted := make(chan struct{})
	release := make(chan struct{})
	cli.dialFn = func(string) (net.Conn, error) {
		close(dialStarted)
		<-release
		return nil, errors.New("never")
	}
	defer close(release)

	src := ClientAddr(1)
	msg := &types.ReadRequest{ReqID: 1, Key: "k"}
	sent := cli.SendAll(src, []Addr{dst}, msg) // starts the dial, queues 1
	<-dialStarted
	for i := 0; i < 4; i++ {
		sent += cli.SendAll(src, []Addr{dst}, msg)
	}
	if sent != 2 {
		t.Fatalf("sent = %d, want 2 (MaxInflight)", sent)
	}
	if n := counterTotal(mreg, "basil_net_frames_dropped_overflow_total"); n != 3 {
		t.Fatalf("overflow drops = %d, want 3", n)
	}
}

// TestTCPPendingBytesCapDropsFrames: the per-connection byte budget sheds
// frames that would exceed it.
func TestTCPPendingBytesCapDropsFrames(t *testing.T) {
	mreg := metrics.NewRegistry()
	dst := ReplicaAddr(0, 0)
	cli, err := NewTCPOpts("", map[Addr]string{dst: "127.0.0.1:1"},
		TCPOptions{PendingBytes: 128, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dialStarted := make(chan struct{})
	release := make(chan struct{})
	cli.dialFn = func(string) (net.Conn, error) {
		close(dialStarted)
		<-release
		return nil, errors.New("never")
	}
	defer close(release)

	src := ClientAddr(1)
	msg := &types.ReadRequest{ReqID: 1, Key: "k"} // frame ≈ 22 + 70 bytes: one fits the budget, two do not
	if got := cli.SendAll(src, []Addr{dst}, msg); got != 1 {
		t.Fatalf("first send rejected: sent=%d", got)
	}
	<-dialStarted
	dropped := 0
	for i := 0; i < 5; i++ {
		if cli.SendAll(src, []Addr{dst}, msg) == 0 {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no frame shed by the 128-byte pending budget")
	}
	if n := counterTotal(mreg, "basil_net_frames_dropped_overflow_total"); n != uint64(dropped) {
		t.Fatalf("overflow drops = %d, want %d", n, dropped)
	}
}

// TestTCPDialingDropsPerPeerMetric: frames dropped because the outbound
// queue filled mid-dial are charged to the peer's own
// frames_dropped_dialing series, and SendAll's return value excludes them
// (the silent-partial-broadcast fix).
func TestTCPDialingDropsPerPeerMetric(t *testing.T) {
	mreg := metrics.NewRegistry()
	dst := ReplicaAddr(0, 0)
	const peer = "127.0.0.1:1"
	cli, err := NewTCPOpts("", map[Addr]string{dst: peer},
		TCPOptions{Queue: 1, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dialStarted := make(chan struct{})
	release := make(chan struct{})
	cli.dialFn = func(string) (net.Conn, error) {
		close(dialStarted)
		<-release
		return nil, errors.New("never")
	}
	defer close(release)

	src := ClientAddr(1)
	msg := &types.ReadRequest{ReqID: 1, Key: "k"}
	sent := cli.SendAll(src, []Addr{dst}, msg) // fills the 1-slot queue
	<-dialStarted
	for i := 0; i < 3; i++ {
		sent += cli.SendAll(src, []Addr{dst}, msg) // all drop: queue full, dial pending
	}
	if sent != 1 {
		t.Fatalf("sent = %d, want 1", sent)
	}
	var got uint64
	for _, c := range mreg.Snapshot().Counters {
		if c.Name == "basil_net_frames_dropped_dialing_total" {
			if c.Labels != `peer="`+peer+`"` {
				t.Fatalf("unexpected labels %q", c.Labels)
			}
			got = c.Value
		}
	}
	if got != 3 {
		t.Fatalf("frames_dropped_dialing{peer=%s} = %d, want 3", peer, got)
	}
}

// TestLocalBoundedReplicaMailbox: with SetReplicaQueueCap, a replica-role
// mailbox stops accepting past its cap (drops report as unsent), except
// for writebacks, while client mailboxes stay unbounded.
func TestLocalBoundedReplicaMailbox(t *testing.T) {
	l := NewLocal()
	defer l.Close()
	l.SetReplicaQueueCap(4)

	gate := make(chan struct{})
	var delivered atomic.Int32
	replica := ReplicaAddr(0, 0)
	l.Register(replica, HandlerFunc(func(from Addr, msg any) {
		<-gate
		delivered.Add(1)
	}))

	accepted := 0
	for i := 0; i < 20; i++ {
		accepted += l.SendAll(ClientAddr(1), []Addr{replica}, i)
	}
	if accepted >= 20 {
		t.Fatalf("bounded mailbox accepted all %d sends", accepted)
	}
	// 1 in the blocked handler + at most cap queued (+1 for the pop/push race).
	if accepted > 6 {
		t.Fatalf("accepted %d sends, want <= 6 with cap 4", accepted)
	}
	// Nothing would ever resend a dropped writeback.
	if l.SendAll(ClientAddr(1), []Addr{replica}, &types.WritebackRequest{}) != 1 {
		t.Fatal("full replica mailbox dropped a writeback")
	}
	accepted++
	close(gate)
	deadline := time.Now().Add(3 * time.Second)
	for int(delivered.Load()) < accepted {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d accepted", delivered.Load(), accepted)
		}
		time.Sleep(time.Millisecond)
	}

	// Clients registered under the same cap stay unbounded.
	cl := ClientAddr(9)
	stall := make(chan struct{})
	l.Register(cl, HandlerFunc(func(Addr, any) { <-stall }))
	defer close(stall)
	ok := 0
	for i := 0; i < 100; i++ {
		ok += l.SendAll(ClientAddr(1), []Addr{cl}, i)
	}
	if ok != 100 {
		t.Fatalf("client mailbox dropped: accepted %d/100", ok)
	}
}
