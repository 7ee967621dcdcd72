package replica

import (
	"sync"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/types"
)

// Admission control: the replica's bounded front door.
//
// The paper makes clients first-class Byzantine actors — a correctly-signed
// client can spam prepares at line rate, abandon transactions to force
// recovery storms, or replay stale traffic — so the replica must bound the
// work it accepts, not just verify it. Before this layer, Deliver handed
// every message to the verify pool, whose full queue blocked the transport
// reader: backpressure, but silent and unbounded upstream (the Local
// mailbox grew without limit, and an honest client stuck behind a spammer
// simply hung until its deadline).
//
// admission replaces that with an explicit, bounded dispatch queue:
//
//   - inflight counts messages admitted but not yet finished dispatching;
//     it may never exceed cap. Over-limit arrivals are shed in O(1).
//   - Shedding is explicit: requests that carry a ReqID get an
//     types.Overloaded{RetryAfter} reply so the client backs off and
//     retries instead of burning its deadline against a silent wall.
//   - A per-client reputation score — fed only by *bad outcomes* the
//     replica already tracks (abandoned prepares, abort votes, recovery
//     traffic, stale drops), never by raw request volume — sheds abusers
//     earlier (above softCapNum/softCapDen occupancy), hands them a
//     longer RetryAfter, and enforces that hint server-side: a suspect
//     is held to a suspectRatePerSec token bucket even when the queue
//     has room, since a Byzantine client ignores hints by definition.
//     Honest hot clients are untouched below the hard cap because
//     volume alone never raises a score.
//   - Writebacks are exempt from the queue (types.NeverShed says why). An
//     exempt message takes no slot (inflight and the cap count only
//     queued traffic; the pool's own task buffer still bounds
//     writebacks). Suspects stay on their token bucket, and a writeback
//     whose certificate fails to verify is charged to its sender
//     (noteBadCert), so garbage certificates remain a bounded spam
//     vector.
//
// Locking: admit/release are lock-free (atomics). The client-score table
// is guarded by mu and is bounded by maxTrackedClients; scores themselves
// are atomics updated from protocol handlers without extra locks.

// Default and limit constants for the admission queue.
const (
	// defaultDispatchQueue is the inflight cap when Config.DispatchQueue
	// is 0: far above any honest closed-loop load, small enough to bound
	// the memory a line-rate spammer can pin.
	defaultDispatchQueue = 1024
	// maxTrackedClients caps the reputation table; beyond it, an arbitrary
	// entry is evicted (a Byzantine client shedding identities faster than
	// this buys itself a clean score but loses its request history too).
	maxTrackedClients = 4096
	// softCapNum/softCapDen: above this fraction of the hard cap,
	// low-reputation clients are shed pre-emptively.
	softCapNum = 3
	softCapDen = 4
	// retryAfterMicros is the backoff hint handed to honest clients on a
	// hard shed; suspects get retryAfterSuspectMicros.
	retryAfterMicros        = 2_000
	retryAfterSuspectMicros = 20_000
	// suspectRatePerSec/suspectBurst: a suspect is held to roughly the
	// rate its RetryAfter hint implies even when the queue has room — a
	// Byzantine client ignores hints by definition, so the hint is
	// enforced server-side with a token bucket. The allowance leaves a
	// reforming client enough bandwidth to finish transactions, feed its
	// commit count, and decay back to clean.
	suspectRatePerSec = 128
	suspectBurst      = 32
	// scoreDecayLimit: when a client's event counts exceed it, they are
	// halved, so old sins (and old virtues) fade and a reformed client is
	// not throttled forever.
	scoreDecayLimit = 1 << 16
)

// clientScore accumulates one client's observable outcomes. All fields
// are atomics; updates come straight from protocol handlers.
type clientScore struct {
	requests   atomic.Uint64 // admitted messages (context, not a penalty)
	commits    atomic.Uint64 // finalized writebacks: good behavior
	aborts     atomic.Uint64 // abort votes on this client's transactions
	abandons   atomic.Uint64 // prepared transactions never finished (GC found them)
	badCerts   atomic.Uint64 // writebacks whose certificate failed to verify
	recoveries atomic.Uint64 // recovery prepares other clients ran on its transactions
	stales     atomic.Uint64 // below-watermark traffic dropped by the lifecycle guard

	// Suspect rate limiting (guarded by rlMu, touched only for suspects,
	// so the honest admit path never takes it).
	rlMu     sync.Mutex
	rlTokens float64
	rlLast   uint64 // µs of the last refill; 0 = bucket never used
}

// takeSuspectToken enforces the suspect rate limit: the bucket refills at
// suspectRatePerSec up to suspectBurst, and an arrival with no token left
// is shed. The first call finds a full bucket.
func (s *clientScore) takeSuspectToken(nowMicros uint64) bool {
	s.rlMu.Lock()
	defer s.rlMu.Unlock()
	if s.rlLast == 0 {
		s.rlTokens = suspectBurst
	} else if nowMicros > s.rlLast {
		s.rlTokens += float64(nowMicros-s.rlLast) * suspectRatePerSec / 1e6
		if s.rlTokens > suspectBurst {
			s.rlTokens = suspectBurst
		}
	}
	s.rlLast = nowMicros
	if s.rlTokens < 1 {
		return false
	}
	s.rlTokens--
	return true
}

// bad is the weighted misbehavior mass: abandoning a prepared transaction
// (forcing every dependent into recovery) and sending a writeback with a
// certificate that does not verify (which no correct client ever does)
// are the worst signals, recovery traffic it caused next, plain aborts
// and stale replays the mildest.
func (s *clientScore) bad() uint64 {
	return 4*(s.abandons.Load()+s.badCerts.Load()) + 2*s.recoveries.Load() + s.aborts.Load() + s.stales.Load()
}

// suspect reports whether this client should be deprioritized under
// pressure: enough misbehavior mass, and more of it than finished work.
// Request volume is deliberately absent — a hot honest client stays clean.
func (s *clientScore) suspect() bool {
	bad, good := s.bad(), 4*s.commits.Load()
	if bad+good > scoreDecayLimit {
		s.decay()
	}
	return bad >= 8 && bad > good
}

// decay halves every counter. Racy halvings are acceptable: the score is
// a heuristic, and losing an increment moves it by one part in thousands.
func (s *clientScore) decay() {
	for _, c := range []*atomic.Uint64{&s.requests, &s.commits, &s.aborts, &s.abandons, &s.badCerts, &s.recoveries, &s.stales} {
		c.Store(c.Load() / 2)
	}
}

// admission is the replica's bounded intake queue plus reputation table.
type admission struct {
	r   *Replica
	cap int64 // inflight cap; <= 0 disables admission (unlimited, seed behavior)

	inflight atomic.Int64

	mu      sync.Mutex
	clients map[uint64]*clientScore
}

func newAdmission(r *Replica, queue int) *admission {
	cap := int64(queue)
	if queue == 0 {
		cap = defaultDispatchQueue
	}
	return &admission{r: r, cap: cap, clients: make(map[uint64]*clientScore)}
}

// clientIDOf extracts the client a message is attributable to, for
// admission accounting. Replica-to-replica traffic (ElectFB, DecFB, and
// replies) is not client-attributable.
func clientIDOf(msg any) (uint64, bool) {
	switch m := msg.(type) {
	case *types.ReadRequest:
		return m.ClientID, true
	case *types.ST1Request:
		return m.ClientID, true
	case *types.ST2Request:
		return m.ClientID, true
	case *types.WritebackRequest:
		return m.ClientID, true
	case *types.InvokeFB:
		return m.ClientID, true
	case *types.AbortRead:
		return m.ClientID, true
	}
	return 0, false
}

// reqIDOf extracts the request id a shed reply must echo. Only messages a
// client is actively waiting on have one; fire-and-forget traffic
// (writeback, abort-read) and replica-to-replica messages shed silently.
func reqIDOf(msg any) (uint64, bool) {
	switch m := msg.(type) {
	case *types.ReadRequest:
		return m.ReqID, true
	case *types.ST1Request:
		return m.ReqID, true
	case *types.ST2Request:
		return m.ReqID, true
	case *types.InvokeFB:
		return m.ReqID, true
	}
	return 0, false
}

// score returns (creating if needed) the reputation record for client id.
// The table is bounded by maxTrackedClients, evicting an arbitrary entry
// at the cap.
func (a *admission) score(id uint64) *clientScore {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s := a.clients[id]; s != nil {
		return s
	}
	if len(a.clients) >= maxTrackedClients {
		for k := range a.clients {
			delete(a.clients, k)
			break
		}
	}
	s := &clientScore{}
	a.clients[id] = s
	return s
}

// peekScore returns the record for id without creating one.
func (a *admission) peekScore(id uint64) *clientScore {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.clients[id]
}

// admit decides whether msg enters the dispatch queue. On admission the
// caller owes exactly one release unless types.NeverShed(msg). On refusal the
// message is shed: counted, and answered with an Overloaded reply when
// the sender is waiting on one.
func (a *admission) admit(from transport.Addr, msg any) bool {
	if a.cap <= 0 {
		return true // admission disabled: unlimited seed behavior
	}
	var sc *clientScore
	if cid, ok := clientIDOf(msg); ok {
		sc = a.score(cid)
		sc.requests.Add(1)
	}
	if types.NeverShed(msg) {
		// Only a suspect's token bucket can refuse an exempt message.
		if sc != nil && sc.suspect() && !sc.takeSuspectToken(a.r.cfg.Clock.NowMicros()) {
			a.r.Stats.Shed.Add(1)
			a.r.Stats.ShedReputation.Add(1)
			a.r.frec.Note("shed", "low-reputation client's writeback rate-limited")
			return false
		}
		return true
	}
	depth, ok := a.reserve()
	switch {
	case !ok:
		a.r.Stats.Shed.Add(1)
		a.r.frec.Note("shed", "dispatch queue full")
		a.shedReply(from, msg, sc)
		return false
	case sc != nil && sc.suspect() &&
		(depth*softCapDen > a.cap*softCapNum ||
			!sc.takeSuspectToken(a.r.cfg.Clock.NowMicros())):
		a.inflight.Add(-1)
		a.r.Stats.Shed.Add(1)
		a.r.Stats.ShedReputation.Add(1)
		a.r.frec.Note("shed", "low-reputation client deprioritized")
		a.shedReply(from, msg, sc)
		return false
	}
	return true
}

// reserve takes one dispatch slot unless the queue is full and returns
// the occupancy including that slot. It compares and swaps instead of
// adding and then undoing an over-cap add, so inflight (and the
// dispatch-depth gauge read from it) never exceeds the cap, even briefly.
func (a *admission) reserve() (depth int64, ok bool) {
	for {
		d := a.inflight.Load()
		if d >= a.cap {
			return d, false
		}
		if a.inflight.CompareAndSwap(d, d+1) {
			return d + 1, true
		}
	}
}

// release returns an admitted message's slot once its handler finished.
func (a *admission) release() {
	if a.cap > 0 {
		a.inflight.Add(-1)
	}
}

// depth is the current dispatch-queue occupancy (admitted, not yet done).
func (a *admission) depth() int64 { return a.inflight.Load() }

// DispatchDepth exposes the admission queue's occupancy (the
// basil_replica_dispatch_depth gauge) for tests and tooling.
func (r *Replica) DispatchDepth() int64 { return r.adm.depth() }

// shedReply answers a shed request with Overloaded so the client backs off
// instead of hammering its deadline. Suspects get a 10x longer hint — the
// rate limit half of deprioritization. Sent directly (never through the
// pool this queue guards); the reply is tiny and unsigned.
func (a *admission) shedReply(from transport.Addr, msg any, sc *clientScore) {
	reqID, ok := reqIDOf(msg)
	if !ok {
		return
	}
	retry := uint64(retryAfterMicros)
	if sc != nil && sc.suspect() {
		retry = retryAfterSuspectMicros
	}
	a.r.send(from, &types.Overloaded{
		ReqID:            reqID,
		ShardID:          a.r.cfg.Shard,
		ReplicaID:        a.r.cfg.Index,
		RetryAfterMicros: retry,
	})
}

// Outcome feeds, called from the protocol handlers that already track
// these events. All are O(1) atomic bumps; a nil-safe no-op when the
// client was never scored (admission disabled, or replica-local traffic).

func (a *admission) noteCommitted(clientID uint64) {
	if s := a.peekScore(clientID); s != nil {
		s.commits.Add(1)
	}
}

func (a *admission) noteAbortVote(clientID uint64) {
	if s := a.peekScore(clientID); s != nil {
		s.aborts.Add(1)
	}
}

// noteRecovery charges the *owner* of the transaction being recovered —
// the client whose abandonment forced someone else into recovery — not
// the recovering client, who is the victim.
func (a *admission) noteRecovery(ownerClientID uint64) {
	if s := a.peekScore(ownerClientID); s != nil {
		s.recoveries.Add(1)
	}
}

func (a *admission) noteStale(clientID uint64) {
	if s := a.peekScore(clientID); s != nil {
		s.stales.Add(1)
	}
}

// noteBadCert charges a client whose writeback carried a certificate that
// failed verification: the price of the writeback's exemption from the
// dispatch queue.
func (a *admission) noteBadCert(clientID uint64) {
	if s := a.peekScore(clientID); s != nil {
		s.badCerts.Add(1)
	}
}

// noteAbandoned charges a transaction's owner when watermark collection
// finds it prepared but never finished — the canonical Byzantine
// dependency-hostage pattern.
func (a *admission) noteAbandoned(ownerClientID uint64) {
	if s := a.peekScore(ownerClientID); s != nil {
		s.abandons.Add(1)
	}
}
