// Package pbft implements a PBFT-style totally ordered log (Castro &
// Liskov, OSDI '99) as the BFT-SMaRt stand-in baseline (paper §6): a
// stable leader batches client commands into blocks, and each block passes
// through pre-prepare, prepare (all-to-all) and commit (all-to-all) before
// execution — five message delays from submission to client-visible reply,
// matching the delay count the paper attributes to BFT-SMaRt.
//
// Replicas authenticate messages with ed25519 signatures from the shared
// key registry. View changes are out of scope: the paper's baseline
// experiments run gracious executions with a stable leader.
package pbft

import (
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/smr"
	"repro/internal/transport"
)

// Config parameterizes one PBFT group (one shard).
type Config struct {
	Shard    int32
	F        int // n = 3f+1
	BatchMax int // max commands per block
	// BatchDelay bounds how long the leader waits to fill a batch.
	BatchDelay time.Duration
	Registry   *cryptoutil.Registry
	// SignerOf maps (shard, replica) to registry index.
	SignerOf func(shard, replica int32) int32
	Net      transport.Network
	// Executor runs committed blocks on each replica.
	Executor smr.Executor
}

// N returns the group size.
func (c Config) N() int { return 3*c.F + 1 }

// Quorum returns 2f+1.
func (c Config) Quorum() int { return 2*c.F + 1 }

// message kinds
type prePrepare struct {
	View  uint64
	Block *smr.Block
	Sig   [64]byte
}

type prepare struct {
	View    uint64
	Seq     uint64
	Digest  [32]byte
	Replica int32
	Sig     [64]byte
}

type commit struct {
	View    uint64
	Seq     uint64
	Digest  [32]byte
	Replica int32
	Sig     [64]byte
}

type submitMsg struct {
	Cmd smr.Command
}

func prepPayload(kind byte, view, seq uint64, digest [32]byte, replica int32) []byte {
	b := make([]byte, 0, 64)
	b = append(b, "pbft/"...)
	b = append(b, kind)
	b = append(b, byte(view), byte(view>>8), byte(view>>16), byte(view>>24))
	b = append(b, byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24),
		byte(seq>>32), byte(seq>>40), byte(seq>>48), byte(seq>>56))
	b = append(b, digest[:]...)
	b = append(b, byte(replica), byte(replica>>8), byte(replica>>16), byte(replica>>24))
	return b
}

// slot tracks one sequence number's agreement progress at a replica.
type slot struct {
	block     *smr.Block
	digest    [32]byte
	prepares  map[int32]bool
	commits   map[int32]bool
	prepared  bool
	committed bool
	executed  bool
}

// Replica is one PBFT replica.
type Replica struct {
	cfg    Config
	index  int32
	addr   transport.Addr
	signer cryptoutil.Signer

	// mu guards all protocol state below; signing and broadcasting happen
	// after release (basilvet BV001).
	mu      sync.Mutex
	view    uint64
	nextSeq uint64 // leader: next sequence to assign
	execSeq uint64 // next sequence to execute
	slots   map[uint64]*slot
	queue   []smr.Command
	timer   *time.Timer
	closed  bool
}

// NewReplica constructs and registers replica index of the group.
func NewReplica(cfg Config, index int32) *Replica {
	if cfg.BatchMax < 1 {
		cfg.BatchMax = 16
	}
	if cfg.BatchDelay <= 0 {
		cfg.BatchDelay = time.Millisecond
	}
	r := &Replica{
		cfg:    cfg,
		index:  index,
		addr:   transport.ReplicaAddr(cfg.Shard, index),
		signer: cfg.Registry.Signer(cfg.SignerOf(cfg.Shard, index)),
		slots:  make(map[uint64]*slot),
	}
	cfg.Net.Register(r.addr, r)
	return r
}

// Addr returns the replica's transport address.
func (r *Replica) Addr() transport.Addr { return r.addr }

// Close stops batch timers.
func (r *Replica) Close() {
	r.mu.Lock()
	r.closed = true
	if r.timer != nil {
		r.timer.Stop()
	}
	r.mu.Unlock()
}

func (r *Replica) leaderOf(view uint64) int32 { return int32(view % uint64(r.cfg.N())) }

func (r *Replica) isLeader() bool {
	return r.leaderOf(r.view) == r.index
}

func (r *Replica) broadcast(msg any) {
	r.cfg.Net.SendAll(r.addr, transport.ShardAddrs(r.cfg.Shard, r.cfg.N()), msg)
}

// Deliver implements transport.Handler.
func (r *Replica) Deliver(from transport.Addr, msg any) {
	switch m := msg.(type) {
	case *submitMsg:
		r.onSubmit(m.Cmd)
	case *prePrepare:
		r.onPrePrepare(m)
	case *prepare:
		r.onPrepare(m)
	case *commit:
		r.onCommit(m)
	}
}

// onSubmit queues a command at the leader; non-leaders forward.
func (r *Replica) onSubmit(cmd smr.Command) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if !r.isLeader() {
		leader := r.leaderOf(r.view)
		r.mu.Unlock()
		r.cfg.Net.Send(r.addr, transport.ReplicaAddr(r.cfg.Shard, leader), &submitMsg{Cmd: cmd})
		return
	}
	r.queue = append(r.queue, cmd)
	if len(r.queue) >= r.cfg.BatchMax {
		blk, view := r.takeBatchLocked()
		r.mu.Unlock()
		r.propose(blk, view)
		return
	}
	if r.timer == nil {
		r.timer = time.AfterFunc(r.cfg.BatchDelay, func() {
			r.mu.Lock()
			var blk *smr.Block
			var view uint64
			if !r.closed && len(r.queue) > 0 {
				blk, view = r.takeBatchLocked()
			}
			r.timer = nil
			r.mu.Unlock()
			if blk != nil {
				r.propose(blk, view)
			}
		})
	}
	r.mu.Unlock()
}

// takeBatchLocked assigns the queued batch a sequence number and clears
// the batch timer. Caller holds r.mu; the caller signs and pre-prepares
// the returned block after releasing it (signing must not run under the
// replica mutex).
func (r *Replica) takeBatchLocked() (*smr.Block, uint64) {
	blk := &smr.Block{Seq: r.nextSeq, Cmds: r.queue}
	r.nextSeq++
	r.queue = nil
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	return blk, r.view
}

// propose signs and broadcasts the pre-prepare for a taken batch, outside
// the lock.
func (r *Replica) propose(blk *smr.Block, view uint64) {
	d := blk.Digest()
	pp := &prePrepare{
		View:  view,
		Block: blk,
		Sig:   r.signer.Sign(prepPayload('p', view, blk.Seq, d, r.index)),
	}
	r.broadcast(pp)
}

func (r *Replica) slotFor(seq uint64) *slot {
	s := r.slots[seq]
	if s == nil {
		s = &slot{prepares: make(map[int32]bool), commits: make(map[int32]bool)}
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) onPrePrepare(m *prePrepare) {
	r.mu.Lock()
	if m.View != r.view {
		r.mu.Unlock()
		return
	}
	leader := r.leaderOf(m.View)
	r.mu.Unlock()
	d := m.Block.Digest()
	if !r.cfg.Registry.Verify(r.cfg.SignerOf(r.cfg.Shard, leader),
		prepPayload('p', m.View, m.Block.Seq, d, leader), m.Sig) {
		return
	}
	r.mu.Lock()
	s := r.slotFor(m.Block.Seq)
	if s.block != nil {
		r.mu.Unlock()
		return
	}
	s.block = m.Block
	s.digest = d
	r.mu.Unlock()

	p := &prepare{
		View: m.View, Seq: m.Block.Seq, Digest: d, Replica: r.index,
		Sig: r.signer.Sign(prepPayload('P', m.View, m.Block.Seq, d, r.index)),
	}
	r.broadcast(p)
	r.checkProgress(m.Block.Seq)
}

func (r *Replica) onPrepare(m *prepare) {
	if !r.cfg.Registry.Verify(r.cfg.SignerOf(r.cfg.Shard, m.Replica),
		prepPayload('P', m.View, m.Seq, m.Digest, m.Replica), m.Sig) {
		return
	}
	r.mu.Lock()
	s := r.slotFor(m.Seq)
	s.prepares[m.Replica] = true
	r.mu.Unlock()
	r.checkProgress(m.Seq)
}

func (r *Replica) onCommit(m *commit) {
	if !r.cfg.Registry.Verify(r.cfg.SignerOf(r.cfg.Shard, m.Replica),
		prepPayload('C', m.View, m.Seq, m.Digest, m.Replica), m.Sig) {
		return
	}
	r.mu.Lock()
	s := r.slotFor(m.Seq)
	s.commits[m.Replica] = true
	r.mu.Unlock()
	r.checkProgress(m.Seq)
}

// checkProgress advances the slot through prepared → committed → executed.
func (r *Replica) checkProgress(seq uint64) {
	r.mu.Lock()
	s := r.slotFor(seq)
	if s.block == nil {
		r.mu.Unlock()
		return
	}
	// Decide state transitions under the lock; sign and send after
	// releasing it.
	var c *commit
	if !s.prepared && len(s.prepares) >= r.cfg.Quorum() {
		s.prepared = true
		c = &commit{View: r.view, Seq: seq, Digest: s.digest, Replica: r.index}
	}
	if !s.committed && len(s.commits) >= r.cfg.Quorum() {
		s.committed = true
	}
	// Execute in sequence order.
	var toExec []*smr.Block
	for {
		s2 := r.slots[r.execSeq]
		if s2 == nil || !s2.committed || s2.executed || s2.block == nil {
			break
		}
		s2.executed = true
		toExec = append(toExec, s2.block)
		r.execSeq++
	}
	r.mu.Unlock()
	if c != nil {
		c.Sig = r.signer.Sign(prepPayload('C', c.View, c.Seq, c.Digest, c.Replica))
		r.broadcast(c)
	}
	for _, blk := range toExec {
		r.cfg.Executor.Execute(r.index, blk)
	}
}

// Group is a whole PBFT shard plus its client-side submission handle.
type Group struct {
	cfg      Config
	replicas []*Replica
}

// NewGroup starts n replicas for cfg.
func NewGroup(cfg Config) *Group {
	g := &Group{cfg: cfg}
	for i := 0; i < cfg.N(); i++ {
		g.replicas = append(g.replicas, NewReplica(cfg, int32(i)))
	}
	return g
}

// Submit hands a command to the group's leader from a client address.
func (g *Group) Submit(from transport.Addr, cmd smr.Command) {
	// Send to replica 0, the stable leader in view 0.
	g.cfg.Net.Send(from, g.replicas[0].addr, &submitMsg{Cmd: cmd})
}

// Replicas exposes the group members.
func (g *Group) Replicas() []*Replica { return g.replicas }

// Close stops the group.
func (g *Group) Close() {
	for _, r := range g.replicas {
		r.Close()
	}
}
