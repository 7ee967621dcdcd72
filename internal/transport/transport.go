// Package transport routes protocol messages between nodes.
//
// Two implementations are provided: an in-process Local network (channels,
// with injectable per-link latency, drops and partitions) used by tests,
// examples and the benchmark harness, and a TCP network for real
// multi-process deployments that frames the canonical binary codec of
// internal/types onto buffered connections (see tcp.go for the wire
// format). Both deliver messages to a node's Handler in
// FIFO order per sender with no cross-sender ordering guarantee, matching
// an asynchronous network.
package transport

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// Role distinguishes replica and client endpoints.
type Role uint8

// Endpoint roles.
const (
	RoleReplica Role = iota
	RoleClient
)

// Addr names a node. Replicas are (RoleReplica, shard, index); clients are
// (RoleClient, 0, clientID).
type Addr struct {
	Role  Role
	Shard int32
	Index int32
}

// ReplicaAddr builds a replica address.
func ReplicaAddr(shard, index int32) Addr {
	return Addr{Role: RoleReplica, Shard: shard, Index: index}
}

// ClientAddr builds a client address.
func ClientAddr(id int32) Addr { return Addr{Role: RoleClient, Index: id} }

// ShardAddrs enumerates the n replica addresses of shard s — the tos
// slice for a whole-shard SendAll. Network implementations do not retain
// tos, so callers with static membership may cache the result.
func ShardAddrs(s int32, n int) []Addr {
	tos := make([]Addr, n)
	for i := range tos {
		tos[i] = ReplicaAddr(s, int32(i))
	}
	return tos
}

func (a Addr) String() string {
	if a.Role == RoleReplica {
		return fmt.Sprintf("r%d.%d", a.Shard, a.Index)
	}
	return fmt.Sprintf("c%d", a.Index)
}

// Handler consumes delivered messages. Deliver is invoked on the node's
// single dispatch goroutine; implementations must not block indefinitely.
type Handler interface {
	Deliver(from Addr, msg any)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from Addr, msg any)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from Addr, msg any) { f(from, msg) }

// Network connects nodes.
type Network interface {
	// Register attaches a handler for addr and starts its dispatcher.
	Register(addr Addr, h Handler)
	// Send enqueues msg for delivery from -> to. Sends to unknown
	// addresses are dropped (an asynchronous network may always lose
	// messages; protocols must tolerate it).
	Send(from, to Addr, msg any)
	// SendAll enqueues msg for delivery from -> each address in tos; it is
	// the broadcast primitive every protocol fanout should use. Semantics
	// are identical to calling Send once per destination — unknown
	// addresses are dropped, per-link fault policies still see every
	// (from, to) pair — but implementations may (and the TCP transport
	// does) serialize the message body exactly once for the whole
	// broadcast, stamping only the per-destination frame header.
	// It returns the number of destinations the message was actually
	// handed to (delivered locally or queued for the wire): a sender that
	// fans out to a quorum can see a partial broadcast — frames dropped
	// while a dial is pending, bounded queues at capacity — instead of
	// silently waiting out a timeout that can never be met.
	// Implementations must not retain tos.
	SendAll(from Addr, tos []Addr, msg any) int
	// Close stops all dispatchers.
	Close()
}

// mailbox is a FIFO queue feeding one dispatch goroutine. With cap == 0 it
// is unbounded: unbounded queues avoid send/receive deadlocks between nodes
// that message each other symmetrically, and protocol-level quorum waiting
// bounds growth for honest traffic. A positive cap bounds the queue and
// push drops (and reports) the overflow instead — the shape replica-bound
// traffic wants, where a Byzantine client spamming signed requests must
// hit a wall here rather than grow the heap.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	cap    int // 0 = unbounded
	closed bool
}

type envelope struct {
	from Addr
	msg  any
}

func newMailbox() *mailbox { return newBoundedMailbox(0) }

// newBoundedMailbox returns a mailbox that holds at most cap envelopes
// (0 = unbounded).
func newBoundedMailbox(cap int) *mailbox {
	m := &mailbox{cap: cap}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push appends e unless the mailbox is closed or full; it reports whether
// the envelope was accepted. A full mailbox still accepts what
// types.NeverShed names.
func (m *mailbox) push(e envelope) bool {
	m.mu.Lock()
	if m.closed || (m.cap > 0 && len(m.queue) >= m.cap && !types.NeverShed(e.msg)) {
		m.mu.Unlock()
		return false
	}
	m.queue = append(m.queue, e)
	m.cond.Signal()
	m.mu.Unlock()
	return true
}

// pop blocks until a message is available or the mailbox closes.
func (m *mailbox) pop() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return envelope{}, false
	}
	e := m.queue[0]
	m.queue = m.queue[1:]
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
