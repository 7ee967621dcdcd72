package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/types"
)

// TCP is a framed-binary implementation of Network for real multi-process
// deployments: each process runs one TCP listener serving all the nodes it
// hosts, and an address book maps transport addresses to host:port pairs.
//
// Wire format: every connection carries a stream of frames, each a 4-byte
// big-endian length followed by the sender address (9 bytes), the
// destination address (9 bytes), and the message in the canonical tagged
// encoding of internal/types — the same codec signature payloads are built
// from, so nothing is serialized twice. Only protocol messages cross the
// wire; arbitrary values are rejected at encode time and dropped.
//
// Each connection owns a writer goroutine feeding a buffered writer:
// senders enqueue encoded frames (blocking when the queue is full, which
// gives natural backpressure), and the writer coalesces whatever is queued
// into one flush — flush happens on idle, not per message. Failed
// connections are evicted everywhere they are referenced, including
// reverse routes learned from inbound traffic, so a reconnecting peer is
// never shadowed by a dead socket.
//
// Broadcasts (SendAll) encode the message body exactly once: each
// destination's frame shares the body slice and carries only its own
// 22-byte header (length prefix + from/to addrs), so fanning an ST1 or
// writeback out to a whole shard costs one serialization, not n.
//
// Dialing never happens on the send path. The first send to an
// unconnected host:port enqueues onto a connection shell whose socket a
// background goroutine is dialing; a failed dial marks the host:port down
// for DialBackoff, during which further sends drop immediately. One
// unreachable replica therefore cannot stall a shard broadcast for the
// dial timeout.
type TCP struct {
	book map[Addr]string // transport addr -> host:port
	opts TCPOptions
	// dialFn performs outbound connection attempts; a test seam, set once
	// at construction and overridable before traffic flows.
	dialFn func(hostport string) (net.Conn, error)

	// mu guards the connection tables below (handlers, conns, reverse,
	// live, down) and closed; per-connection writes queue on each conn's
	// own writer goroutine, never under mu.
	mu       sync.Mutex
	handlers map[Addr]Handler
	conns    map[string]*tcpConn // dialed (or dialing), by host:port
	// reverse maps a remote node's transport address to the inbound
	// connection its traffic arrives on, so replies reach nodes that are
	// not in the address book (clients behind ephemeral ports).
	reverse map[Addr]*tcpConn
	live    map[*tcpConn]struct{} // every open connection, for Close
	// down records host:ports whose last dial failed; sends to them are
	// dropped (fail-fast) until the backoff deadline passes.
	down   map[string]time.Time
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup

	// inbound counts currently-open accepted connections, enforced against
	// TCPOptions.MaxConns in acceptLoop. Guarded by mu.
	inbound int
	// inflight counts frames queued across every connection's out channel
	// (reserved in enqueue, released when the writer dequeues or a dead
	// connection's queue is drained), enforced against MaxInflight.
	inflight atomic.Int64

	// Wire counters (nil-safe no-ops unless TCPOptions.Metrics was set).
	mx tcpMetrics
	// reg backs the dynamic per-peer counters in dialDropMetrics; nil when
	// instrumentation is off. dialDrops is guarded by mu.
	reg       *metrics.Registry
	dialDrops map[string]*metrics.Counter
	// tracer records per-frame queueing-delay spans; nil-safe.
	tracer *trace.Tracer
}

// tcpMetrics are the transport's instrument handles; see TCPOptions.Metrics.
type tcpMetrics struct {
	framesOut, bytesOut *metrics.Counter
	framesIn, bytesIn   *metrics.Counter
	dials, dialFails    *metrics.Counter
	backoffDrops        *metrics.Counter
	broadcasts, fanout  *metrics.Counter
	// overflowDrops counts frames shed by the bounded intake: a per-conn
	// pending-byte budget or the global inflight cap was exceeded.
	overflowDrops *metrics.Counter
	// connsRejected counts inbound connections refused by MaxConns.
	connsRejected *metrics.Counter
	// acceptRetries counts transient Accept errors survived by acceptLoop.
	acceptRetries *metrics.Counter
}

// initTCPMetrics registers the wire counters. reg may be nil (off).
func initTCPMetrics(reg *metrics.Registry) tcpMetrics {
	if reg == nil {
		reg = metrics.Nop
	}
	return tcpMetrics{
		framesOut:     reg.Counter("basil_net_frames_total", "dir", "out"),
		bytesOut:      reg.Counter("basil_net_bytes_total", "dir", "out"),
		framesIn:      reg.Counter("basil_net_frames_total", "dir", "in"),
		bytesIn:       reg.Counter("basil_net_bytes_total", "dir", "in"),
		dials:         reg.Counter("basil_net_dials_total"),
		dialFails:     reg.Counter("basil_net_dial_failures_total"),
		backoffDrops:  reg.Counter("basil_net_backoff_drops_total"),
		broadcasts:    reg.Counter("basil_net_broadcasts_total"),
		fanout:        reg.Counter("basil_net_broadcast_dests_total"),
		overflowDrops: reg.Counter("basil_net_frames_dropped_overflow_total"),
		connsRejected: reg.Counter("basil_net_conns_rejected_total"),
		acceptRetries: reg.Counter("basil_net_accept_retries_total"),
	}
}

// dialDropMetrics returns the per-peer frames_dropped_dialing counter for
// hostport, registering it on first use. Frames dropped while a background
// dial is pending used to vanish without a trace; the per-peer family makes
// "this replica's broadcasts silently miss that host" visible. Caller must
// hold t.mu. Nil (a no-op counter) when instrumentation is off.
func (t *TCP) dialDropMetrics(hostport string) *metrics.Counter {
	if t.reg == nil {
		return nil
	}
	if c, ok := t.dialDrops[hostport]; ok {
		return c
	}
	c := t.reg.Counter("basil_net_frames_dropped_dialing_total", "peer", hostport)
	t.dialDrops[hostport] = c
	return c
}

// TCPOptions tunes a TCP network. The zero value selects the defaults.
type TCPOptions struct {
	// MaxFrame caps a single wire frame, both sent (oversized sends are
	// dropped) and received (oversized frames kill the connection). It
	// must be identical on every node of a deployment: a frame one node
	// is willing to send but another rejects causes a reconnect/resend
	// loop. Certificates dominate frame size. Default 16 MiB.
	MaxFrame int
	// BufSize is the per-connection buffered reader/writer size.
	// Default 64 KiB.
	BufSize int
	// Queue is the per-connection outbound frame queue length; senders
	// block when it is full. Default 256.
	Queue int
	// DialTimeout bounds outbound connection attempts. Default 3s.
	DialTimeout time.Duration
	// DialBackoff is how long a host:port whose dial failed is considered
	// down; sends to it during the window are dropped without dialing.
	// Default 1s.
	DialBackoff time.Duration
	// MaxConns caps concurrently-open inbound (accepted) connections;
	// further accepts are closed immediately and counted in
	// basil_net_conns_rejected_total. 0 = unlimited (the default).
	MaxConns int
	// AcceptRate caps accepted connections per second (a pacing delay
	// between accepts, not a burst bucket). 0 = unlimited (the default).
	AcceptRate int
	// PendingBytes budgets the bytes queued on one connection's outbound
	// queue; frames that would exceed it are dropped and counted in
	// basil_net_frames_dropped_overflow_total. It bounds the memory a slow
	// or stalled peer can pin (the frame queue alone admits Queue frames
	// of up to MaxFrame bytes each). 0 = unlimited (the default).
	PendingBytes int
	// MaxInflight caps frames queued across all connections — the
	// transport-wide inflight limit. Excess frames are dropped and counted
	// in basil_net_frames_dropped_overflow_total. 0 = unlimited.
	MaxInflight int
	// Metrics, if non-nil, registers the transport's wire counters
	// (frames/bytes in and out, dials and backoff drops, broadcast
	// fanout) on the given registry. Nil disables instrumentation.
	Metrics *metrics.Registry
	// Tracer, if non-nil, records a "net.queue" span (enqueue to socket
	// write — the frame's queueing delay) for frames whose message
	// carries a sampled trace context. Nil disables tracing.
	Tracer *trace.Tracer
}

func (o *TCPOptions) withDefaults() {
	if o.MaxFrame <= 0 {
		o.MaxFrame = 16 << 20
	}
	if o.BufSize <= 0 {
		o.BufSize = 64 << 10
	}
	if o.Queue <= 0 {
		o.Queue = 256
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = time.Second
	}
}

// frameHdrSize is the fixed per-destination frame header: a 4-byte length
// prefix plus the sender and destination addresses.
const frameHdrSize = 4 + 2*addrWireSize

// wireFrame is one outbound frame: the per-destination header and the
// encoded message body. Broadcast frames share one body slice across all
// destinations — only the header differs — so the body must never be
// mutated after it is handed to enqueue.
type wireFrame struct {
	hdr  [frameHdrSize]byte
	body []byte
	// tc and enq attribute this frame's queueing delay to a sampled
	// transaction; enq is 0 on the common (unsampled) path and the
	// writer skips the span entirely.
	tc  types.TraceContext
	enq int64
}

// makeFrame stamps the per-destination header onto a shared body.
func makeFrame(from, to Addr, body []byte) wireFrame {
	var f wireFrame
	binary.BigEndian.PutUint32(f.hdr[:4], uint32(2*addrWireSize+len(body)))
	putAddr(f.hdr[4:], from)
	putAddr(f.hdr[4+addrWireSize:], to)
	f.body = body
	return f
}

// tcpConn is one TCP connection (dialed, dialing, or inbound) with its
// outbound frame queue. The writer goroutine is the only writer on the
// socket. For outbound connections the socket is attached by the
// background dial goroutine; frames enqueued meanwhile wait in out.
type tcpConn struct {
	hostport string // dial target; "" for inbound connections
	inbound  bool   // accepted (counts against MaxConns)
	out      chan wireFrame
	closed   chan struct{}
	// ready is closed once the socket is attached; while it is open the
	// peer may well be dead, so a full queue drops instead of blocking.
	ready chan struct{}
	once  sync.Once
	// pending is the byte footprint of frames currently in out, enforced
	// against TCPOptions.PendingBytes.
	pending atomic.Int64

	connMu sync.Mutex
	c      net.Conn // nil until the background dial completes (outbound)
}

// close makes the connection unusable; safe to call many times.
func (c *tcpConn) close() {
	c.once.Do(func() {
		close(c.closed)
		c.connMu.Lock()
		if c.c != nil {
			c.c.Close()
		}
		c.connMu.Unlock()
	})
}

// attach installs the dialed socket. It reports false when the connection
// was closed while the dial was in flight (the caller must close raw).
func (c *tcpConn) attach(raw net.Conn) bool {
	c.connMu.Lock()
	c.c = raw
	c.connMu.Unlock()
	close(c.ready)
	select {
	case <-c.closed:
		return false
	default:
		return true
	}
}

// frameSize is a queued frame's accounting footprint.
func frameSize(f wireFrame) int64 { return int64(len(f.hdr) + len(f.body)) }

// releaseFrame returns a dequeued (or drained) frame's reservation to the
// per-conn byte budget and the global inflight count. Every successful
// enqueue is matched by exactly one releaseFrame: the writer releases on
// dequeue, and dead connections' queues are drained by drainQueue.
func (t *TCP) releaseFrame(c *tcpConn, f wireFrame) {
	c.pending.Add(-frameSize(f))
	t.inflight.Add(-1)
}

// drainQueue empties a dead connection's outbound queue, releasing the
// reservations of frames no writer will ever dequeue. Safe to run
// concurrently with the writer or another drain: a frame is received (and
// hence released) exactly once.
func (t *TCP) drainQueue(c *tcpConn) {
	for {
		select {
		case f := <-c.out:
			t.releaseFrame(c, f)
		default:
			return
		}
	}
}

// enqResult says what enqueue did with a frame.
type enqResult uint8

// enqueue outcomes.
const (
	enqQueued         enqResult = iota
	enqDroppedDialing           // queue full while the background dial is pending
	enqDroppedLimit             // per-conn byte budget or global inflight cap
	enqDead                     // connection is dead; caller should evict
)

// enqueue hands a frame to the writer goroutine. On a live (attached)
// connection a full queue blocks — backpressure. While the background
// dial is still pending a full queue drops the frame instead: the peer is
// plausibly dead, and blocking here would let it stall a broadcast for
// the remainder of the dial timeout. The per-conn byte budget and the
// global inflight cap shed over-limit frames the same way; the result says
// which of these happened so the caller can account for the drop.
func (t *TCP) enqueue(c *tcpConn, frame wireFrame) enqResult {
	select {
	case <-c.closed:
		return enqDead
	default:
	}
	size := frameSize(frame)
	if max := int64(t.opts.PendingBytes); max > 0 && c.pending.Load()+size > max {
		t.mx.overflowDrops.Inc()
		return enqDroppedLimit
	}
	if max := int64(t.opts.MaxInflight); max > 0 && t.inflight.Load() >= max {
		t.mx.overflowDrops.Inc()
		return enqDroppedLimit
	}
	c.pending.Add(size)
	t.inflight.Add(1)
	committed := false
	select {
	case c.out <- frame:
		committed = true
	case <-c.closed:
		t.releaseFrame(c, frame)
		return enqDead
	default:
	}
	if !committed {
		// Queue full. Only block for it to drain if the socket is attached.
		select {
		case <-c.ready:
		default:
			t.releaseFrame(c, frame)
			return enqDroppedDialing
		}
		select {
		case c.out <- frame:
		case <-c.closed:
			t.releaseFrame(c, frame)
			return enqDead
		}
	}
	// The commit can race the connection dying after its final drain; if it
	// did, reclaim whatever is still queued ourselves (dequeues are
	// exactly-once either way) so the reservation cannot leak.
	select {
	case <-c.closed:
		t.drainQueue(c)
		return enqDead
	default:
	}
	return enqQueued
}

// NewTCP creates a TCP network listening on listen (empty for client-only
// processes that host no replicas) with the given address book and
// default options.
func NewTCP(listen string, book map[Addr]string) (*TCP, error) {
	return NewTCPOpts(listen, book, TCPOptions{})
}

// NewTCPOpts is NewTCP with explicit tuning options.
func NewTCPOpts(listen string, book map[Addr]string, opts TCPOptions) (*TCP, error) {
	opts.withDefaults()
	t := &TCP{
		book:     book,
		opts:     opts,
		handlers: make(map[Addr]Handler),
		conns:    make(map[string]*tcpConn),
		reverse:  make(map[Addr]*tcpConn),
		live:     make(map[*tcpConn]struct{}),
		down:     make(map[string]time.Time),
		mx:       initTCPMetrics(opts.Metrics),
		reg:      opts.Metrics,
		tracer:   opts.Tracer,
	}
	if t.reg != nil {
		t.dialDrops = make(map[string]*metrics.Counter)
	}
	t.dialFn = func(hostport string) (net.Conn, error) {
		return net.DialTimeout("tcp", hostport, t.opts.DialTimeout)
	}
	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// ListenAddr returns the bound listen address (useful with ":0").
func (t *TCP) ListenAddr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetRoute adds or updates an address-book entry.
func (t *TCP) SetRoute(a Addr, hostport string) {
	t.mu.Lock()
	t.book[a] = hostport
	t.mu.Unlock()
}

// acceptLoop accepts inbound connections until the listener closes. Accept
// errors other than listener closure — EMFILE under fd pressure,
// ECONNABORTED from a peer resetting mid-handshake — are transient: the
// loop backs off and retries instead of returning, because returning here
// permanently stops the server accepting connections while looking
// perfectly healthy otherwise.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	backoff := time.Millisecond
	var pace time.Duration
	if t.opts.AcceptRate > 0 {
		pace = time.Second / time.Duration(t.opts.AcceptRate)
	}
	for {
		raw, err := t.ln.Accept()
		if err != nil {
			if t.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			t.mx.acceptRetries.Inc()
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = time.Millisecond
		if !t.admitInbound() {
			t.mx.connsRejected.Inc()
			raw.Close()
			continue
		}
		c, ok := t.adopt(raw, "")
		if !ok {
			raw.Close()
			return
		}
		// learnReverse: inbound traffic teaches us how to reach peers
		// that are not in the address book.
		t.wg.Add(1)
		go t.readLoop(c, true)
		if pace > 0 {
			time.Sleep(pace)
		}
	}
}

// isClosed reports whether Close has begun.
func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// admitInbound reserves an inbound-connection slot against MaxConns; the
// slot is returned by evict when the connection dies.
func (t *TCP) admitInbound() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opts.MaxConns > 0 && t.inbound >= t.opts.MaxConns {
		return false
	}
	t.inbound++
	return true
}

// adopt registers an inbound connection, starts its writer goroutine, and
// reports false when the network is already closed.
func (t *TCP) adopt(raw net.Conn, hostport string) (*tcpConn, bool) {
	c := &tcpConn{
		c:        raw,
		hostport: hostport,
		inbound:  hostport == "",
		out:      make(chan wireFrame, t.opts.Queue),
		closed:   make(chan struct{}),
		ready:    make(chan struct{}),
	}
	close(c.ready) // the socket exists from the start
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false
	}
	t.live[c] = struct{}{}
	t.wg.Add(1)
	t.mu.Unlock()
	go t.writeLoop(c)
	return c, true
}

// writeLoop is the connection's only socket writer. It batches every
// frame already queued into one buffered write and flushes only when the
// queue goes idle, coalescing bursts into few syscalls.
func (t *TCP) writeLoop(c *tcpConn) {
	defer t.wg.Done()
	bw := bufio.NewWriterSize(c.c, t.opts.BufSize)
	node := "net:" + c.hostport
	if c.hostport == "" {
		node = "net:reverse"
	}
	write := func(frame wireFrame) bool {
		if _, err := bw.Write(frame.hdr[:]); err != nil {
			return false
		}
		if _, err := bw.Write(frame.body); err != nil {
			return false
		}
		t.mx.framesOut.Inc()
		t.mx.bytesOut.Add(uint64(len(frame.hdr) + len(frame.body)))
		if frame.enq != 0 {
			t.tracer.End(frame.tc, node, "net.queue", 0, frame.enq)
		}
		return true
	}
	for {
		select {
		case <-c.closed:
			bw.Flush()
			t.drainQueue(c)
			return
		case frame := <-c.out:
			t.releaseFrame(c, frame)
			if !write(frame) {
				t.evict(c)
				return
			}
		coalesce:
			for {
				select {
				case more := <-c.out:
					t.releaseFrame(c, more)
					if !write(more) {
						t.evict(c)
						return
					}
				default:
					break coalesce
				}
			}
			if bw.Flush() != nil {
				t.evict(c)
				return
			}
		}
	}
}

// maxKeptReadBuf bounds the read buffer a connection keeps between
// frames; every honest protocol frame fits well inside it.
const maxKeptReadBuf = 64 << 10

// readLoop decodes frames arriving on c and delivers them to local
// handlers. With learnReverse set (inbound connections) it records the
// sender's reverse route so replies to unbooked peers can be sent.
//
// Every frame is read into one per-connection buffer that grows to the
// largest frame seen, up to maxKeptReadBuf: types.DecodeMessage copies
// everything it keeps out of its input, so no delivered message aliases
// the buffer. A larger frame is read into a buffer of its own, so one
// outsized frame does not pin its size for the connection's lifetime.
func (t *TCP) readLoop(c *tcpConn, learnReverse bool) {
	defer t.wg.Done()
	defer t.evict(c)
	br := bufio.NewReaderSize(c.c, t.opts.BufSize)
	var lenbuf [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, lenbuf[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(lenbuf[:]))
		if n < 2*addrWireSize || n > t.opts.MaxFrame {
			return
		}
		var frame []byte
		switch {
		case n <= cap(buf):
			frame = buf[:n]
		case n <= maxKeptReadBuf:
			buf = make([]byte, n)
			frame = buf
		default:
			frame = make([]byte, n)
		}
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		from, ok1 := decodeAddr(frame)
		to, ok2 := decodeAddr(frame[addrWireSize:])
		if !ok1 || !ok2 {
			return
		}
		msg, rest, err := types.DecodeMessage(frame[2*addrWireSize:])
		if err != nil || len(rest) != 0 {
			return
		}
		t.mx.framesIn.Inc()
		t.mx.bytesIn.Add(uint64(4 + n))
		t.mu.Lock()
		h := t.handlers[to]
		if learnReverse {
			if _, known := t.book[from]; !known {
				t.reverse[from] = c
			}
		}
		t.mu.Unlock()
		if h != nil {
			h.Deliver(from, msg)
		}
	}
}

// evict closes c and removes every reference to it: the dialed-connection
// cache and any reverse routes learned from it. Reverse-route eviction is
// what lets a reconnecting client be reached again — a dead inbound socket
// must never shadow the live one.
func (t *TCP) evict(c *tcpConn) {
	t.mu.Lock()
	if c.hostport != "" && t.conns[c.hostport] == c {
		delete(t.conns, c.hostport)
	}
	for a, rc := range t.reverse {
		if rc == c {
			delete(t.reverse, a)
		}
	}
	if _, wasLive := t.live[c]; wasLive && c.inbound {
		t.inbound-- // return the MaxConns slot exactly once
	}
	delete(t.live, c)
	t.mu.Unlock()
	c.close()
	t.drainQueue(c)
}

// Register implements Network. Unlike Local, delivery runs on the
// connection-reading goroutine; handlers are already required not to block
// indefinitely.
func (t *TCP) Register(addr Addr, h Handler) {
	t.mu.Lock()
	t.handlers[addr] = h
	t.mu.Unlock()
}

// encodeBody serializes msg with the canonical tagged codec. The test
// hook lets the counting-codec test prove encode-once semantics without a
// second serialization path.
var encodeBodyHook func(msg any) // test seam; nil outside tests

func encodeBody(msg any) ([]byte, error) {
	if encodeBodyHook != nil {
		encodeBodyHook(msg)
	}
	return types.EncodeMessage(msg)
}

// Send implements Network. Messages to locally registered handlers are
// delivered directly; everything else is framed onto a cached connection.
// Non-protocol values and unroutable destinations are dropped (the
// asynchronous network model; protocols tolerate loss).
func (t *TCP) Send(from, to Addr, msg any) {
	t.SendAll(from, []Addr{to}, msg)
}

// SendAll implements Network with encode-once semantics: the message body
// is serialized at most once for the whole broadcast (lazily, so a fanout
// that resolves entirely to local handlers never touches the codec), and
// every remote destination's frame shares that body, stamped with its own
// header. Local destinations reuse the decoded value directly. The return
// value is the number of destinations actually handed the message; drops
// while a dial is pending are additionally charged to the peer's
// frames_dropped_dialing counter so partial broadcasts are visible.
func (t *TCP) SendAll(from Addr, tos []Addr, msg any) int {
	if len(tos) > 1 {
		t.mx.broadcasts.Inc()
		t.mx.fanout.Add(uint64(len(tos)))
	}
	sent := 0
	var body []byte
	var tc types.TraceContext
	var enq int64
	unencodable := false
	for _, to := range tos {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return sent
		}
		if h := t.handlers[to]; h != nil {
			t.mu.Unlock()
			h.Deliver(from, msg)
			sent++
			continue
		}
		conn := t.routeLocked(to)
		t.mu.Unlock()
		if conn == nil {
			continue // unknown, or fail-fast on a backed-off host:port
		}
		if body == nil {
			if unencodable {
				continue
			}
			var err error
			body, err = encodeBody(msg)
			if err != nil || 2*addrWireSize+len(body) > t.opts.MaxFrame {
				// Not a protocol message, or a frame the receiver would
				// kill the connection over (dropping every in-flight frame
				// with it): drop sender-side for all remote destinations.
				body, unencodable = nil, true
				continue
			}
			if t.tracer != nil {
				tc = types.TraceContextOf(msg)
				enq = t.tracer.Start(tc) // 0 unless sampled
			}
		}
		frame := makeFrame(from, to, body)
		frame.tc, frame.enq = tc, enq
		switch t.enqueue(conn, frame) {
		case enqQueued:
			sent++
		case enqDroppedDialing:
			t.mu.Lock()
			c := t.dialDropMetrics(conn.hostport)
			t.mu.Unlock()
			c.Inc()
		case enqDroppedLimit:
			// already counted in overflowDrops by enqueue
		case enqDead:
			t.evict(conn)
		}
	}
	return sent
}

// routeLocked resolves to's outbound connection, starting a background
// dial when none exists. It returns nil for unknown destinations and for
// host:ports inside their dial-failure backoff window. Caller holds t.mu.
func (t *TCP) routeLocked(to Addr) *tcpConn {
	hostport := t.book[to]
	if hostport == "" {
		return t.reverse[to]
	}
	if c := t.conns[hostport]; c != nil {
		return c
	}
	if until, dead := t.down[hostport]; dead {
		if time.Now().Before(until) {
			t.mx.backoffDrops.Inc()
			return nil // fail-fast: recently unreachable
		}
		delete(t.down, hostport)
	}
	c := &tcpConn{
		hostport: hostport,
		out:      make(chan wireFrame, t.opts.Queue),
		closed:   make(chan struct{}),
		ready:    make(chan struct{}),
	}
	t.conns[hostport] = c
	t.live[c] = struct{}{}
	t.wg.Add(1)
	go t.dialLoop(c)
	return c
}

// dialLoop connects an outbound connection shell off the send path. On
// success it attaches the socket and starts the writer (draining frames
// queued during the dial) and reader; on failure it marks the host:port
// down for the backoff window and evicts the shell.
func (t *TCP) dialLoop(c *tcpConn) {
	defer t.wg.Done()
	t.mx.dials.Inc()
	raw, err := t.dialFn(c.hostport)
	if err != nil {
		t.mx.dialFails.Inc()
		t.mu.Lock()
		t.down[c.hostport] = time.Now().Add(t.opts.DialBackoff)
		t.mu.Unlock()
		t.evict(c)
		return
	}
	if !c.attach(raw) {
		raw.Close() // closed while dialing
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.evict(c)
		return
	}
	t.wg.Add(2)
	t.mu.Unlock()
	go t.writeLoop(c)
	go t.readLoop(c, false)
}

// addrWireSize is the encoded size of an Addr: role byte + shard + index.
const addrWireSize = 9

func putAddr(b []byte, a Addr) {
	b[0] = byte(a.Role)
	binary.BigEndian.PutUint32(b[1:5], uint32(a.Shard))
	binary.BigEndian.PutUint32(b[5:9], uint32(a.Index))
}

func decodeAddr(b []byte) (Addr, bool) {
	if len(b) < addrWireSize {
		return Addr{}, false
	}
	return Addr{
		Role:  Role(b[0]),
		Shard: int32(binary.BigEndian.Uint32(b[1:5])),
		Index: int32(binary.BigEndian.Uint32(b[5:9])),
	}, true
}

// Close implements Network.
func (t *TCP) Close() {
	t.mu.Lock()
	t.closed = true
	if t.ln != nil {
		t.ln.Close()
	}
	for c := range t.live {
		c.close()
	}
	t.conns = make(map[string]*tcpConn)
	t.reverse = make(map[Addr]*tcpConn)
	t.live = make(map[*tcpConn]struct{})
	t.mu.Unlock()
	t.wg.Wait()
}
