// Package hotstuff implements a chained-HotStuff ordered log (Yin et al.,
// PODC '19) as the TxHotstuff baseline substrate (paper §6).
//
// The protocol is the pipelined three-phase variant: each height's leader
// proposes a block extending the highest known quorum certificate (QC);
// replicas vote to the next leader; collecting n-f votes forms the next
// QC. A block commits once it heads a three-chain (its QC has a child QC
// that has a child QC), giving the ~nine message delays from submission to
// client-visible reply that the paper measures for TxHotstuff.
//
// Leaders rotate round-robin per height. The pacemaker is the happy-path
// one (propose on QC formation, plus a low idle timer to keep the chain
// advancing when new commands arrive); view synchronization under leader
// failure is out of scope, matching the paper's gracious-execution
// baseline runs.
package hotstuff

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/smr"
	"repro/internal/transport"
)

// Config parameterizes one HotStuff group (one shard).
type Config struct {
	Shard      int32
	F          int // n = 3f+1
	BatchMax   int
	BatchDelay time.Duration
	Registry   *cryptoutil.Registry
	SignerOf   func(shard, replica int32) int32
	Net        transport.Network
	Executor   smr.Executor
}

// N returns the group size.
func (c Config) N() int { return 3*c.F + 1 }

// Quorum returns 2f+1.
func (c Config) Quorum() int { return 2*c.F + 1 }

// node is one chained block.
type node struct {
	Height  uint64
	Parent  [32]byte
	Cmds    []smr.Command
	Justify *qc // QC for the parent
}

func (n *node) digest() [32]byte {
	b := make([]byte, 0, 128)
	b = append(b, "hs/node/"...)
	b = binary.BigEndian.AppendUint64(b, n.Height)
	b = append(b, n.Parent[:]...)
	for i := range n.Cmds {
		b = n.Cmds[i].AppendCanonical(b)
	}
	if n.Justify != nil {
		b = append(b, n.Justify.Block[:]...)
	}
	return sha256.Sum256(b)
}

// qc is a quorum certificate: n-f signatures over a block digest.
type qc struct {
	Height uint64
	Block  [32]byte
	Voters []int32
	Sigs   [][64]byte
}

func votePayload(height uint64, block [32]byte, replica int32) []byte {
	b := make([]byte, 0, 64)
	b = append(b, "hs/vote/"...)
	b = binary.BigEndian.AppendUint64(b, height)
	b = append(b, block[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(replica))
	return b
}

type proposal struct {
	Node     *node
	Proposer int32
	Sig      [64]byte
}

type vote struct {
	Height  uint64
	Block   [32]byte
	Replica int32
	Sig     [64]byte
}

type submitMsg struct{ Cmd smr.Command }

// Replica is one HotStuff replica.
type Replica struct {
	cfg    Config
	index  int32
	addr   transport.Addr
	signer cryptoutil.Signer

	// mu guards all chain state below; signing and broadcasting happen
	// after release (basilvet BV001).
	mu       sync.Mutex
	nodes    map[[32]byte]*node
	highQC   *qc
	height   uint64 // last proposed/observed height
	lastVote uint64
	votes    map[[32]byte]map[int32][64]byte
	execHt   uint64
	maxCmdHt uint64 // highest height of a known non-empty block
	execQ    []*smr.Block
	// pool holds commands awaiting inclusion, keyed by digest; commands
	// are broadcast to every replica so whichever replica leads the next
	// height can include them (duplicates are deduplicated at execution).
	pool    map[[32]byte]smr.Command
	poolOrd [][32]byte
	timer   *time.Timer
	closed  bool
}

var genesisDigest = sha256.Sum256([]byte("hs/genesis"))

// NewReplica constructs and registers one replica.
func NewReplica(cfg Config, index int32) *Replica {
	if cfg.BatchMax < 1 {
		cfg.BatchMax = 4
	}
	if cfg.BatchDelay <= 0 {
		cfg.BatchDelay = time.Millisecond
	}
	r := &Replica{
		cfg:    cfg,
		index:  index,
		addr:   transport.ReplicaAddr(cfg.Shard, index),
		signer: cfg.Registry.Signer(cfg.SignerOf(cfg.Shard, index)),
		nodes:  make(map[[32]byte]*node),
		votes:  make(map[[32]byte]map[int32][64]byte),
		pool:   make(map[[32]byte]smr.Command),
	}
	g := &node{Height: 0}
	r.nodes[genesisDigest] = g
	r.highQC = &qc{Height: 0, Block: genesisDigest}
	cfg.Net.Register(r.addr, r)
	return r
}

// Addr returns the transport address.
func (r *Replica) Addr() transport.Addr { return r.addr }

// Close stops timers.
func (r *Replica) Close() {
	r.mu.Lock()
	r.closed = true
	if r.timer != nil {
		r.timer.Stop()
	}
	r.mu.Unlock()
}

func (r *Replica) leaderOf(height uint64) int32 { return int32(height % uint64(r.cfg.N())) }

func (r *Replica) broadcast(msg any) {
	r.cfg.Net.SendAll(r.addr, transport.ShardAddrs(r.cfg.Shard, r.cfg.N()), msg)
}

// Deliver implements transport.Handler.
func (r *Replica) Deliver(from transport.Addr, msg any) {
	switch m := msg.(type) {
	case *submitMsg:
		r.onSubmit(m.Cmd)
	case *proposal:
		r.onProposal(m)
	case *vote:
		r.onVote(m)
	}
}

// onSubmit pools a command; whichever replica leads the next height
// includes pooled commands in its proposal when a batch fills or the
// delay elapses.
func (r *Replica) onSubmit(cmd smr.Command) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	d := cmdDigest(&cmd)
	if _, dup := r.pool[d]; !dup {
		r.pool[d] = cmd
		r.poolOrd = append(r.poolOrd, d)
	}
	if len(r.pool) >= r.cfg.BatchMax {
		pn := r.tryProposeLocked()
		r.mu.Unlock()
		r.propose(pn)
		return
	}
	if r.timer == nil {
		r.timer = time.AfterFunc(r.cfg.BatchDelay, func() {
			r.mu.Lock()
			var pn *node
			if !r.closed {
				pn = r.tryProposeLocked()
			}
			r.timer = nil
			r.mu.Unlock()
			r.propose(pn)
		})
	}
	r.mu.Unlock()
}

func cmdDigest(c *smr.Command) [32]byte {
	return sha256.Sum256(c.AppendCanonical(nil))
}

// tryProposeLocked builds a block for height highQC.Height+1 if this
// replica leads it, returning it for the caller to sign and broadcast
// after releasing r.mu (signing must not run under the replica mutex).
// Empty blocks are proposed only while non-empty blocks still await their
// three-chain commit — they keep the chain moving without spinning
// forever on an idle group. Caller holds r.mu.
func (r *Replica) tryProposeLocked() *node {
	next := r.highQC.Height + 1
	if r.leaderOf(next) != r.index || next <= r.height {
		return nil
	}
	if len(r.pool) == 0 && r.execHt >= r.maxCmdHt {
		return nil // nothing pending; stay idle
	}
	r.height = next
	var cmds []smr.Command
	var rest [][32]byte
	for i, d := range r.poolOrd {
		if _, ok := r.pool[d]; !ok {
			continue
		}
		if len(cmds) >= r.cfg.BatchMax {
			rest = append(rest, r.poolOrd[i:]...)
			break
		}
		cmds = append(cmds, r.pool[d])
		delete(r.pool, d)
	}
	r.poolOrd = rest
	n := &node{
		Height:  next,
		Parent:  r.highQC.Block,
		Cmds:    cmds,
		Justify: r.highQC,
	}
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	return n
}

// propose signs and broadcasts a built block, outside the lock. nil
// (nothing to propose) is a no-op so callers can thread the
// tryProposeLocked result through unconditionally.
func (r *Replica) propose(n *node) {
	if n == nil {
		return
	}
	d := n.digest()
	p := &proposal{
		Node:     n,
		Proposer: r.index,
		Sig:      r.signer.Sign(votePayload(n.Height, d, r.index)),
	}
	r.broadcast(p)
}

// verifyQC checks an n-f vote certificate.
func (r *Replica) verifyQC(c *qc) bool {
	if c.Block == genesisDigest && c.Height == 0 {
		return true
	}
	if len(c.Voters) < r.cfg.Quorum() || len(c.Voters) != len(c.Sigs) {
		return false
	}
	seen := make(map[int32]bool)
	for i, v := range c.Voters {
		if seen[v] {
			return false
		}
		seen[v] = true
		if !r.cfg.Registry.Verify(r.cfg.SignerOf(r.cfg.Shard, v),
			votePayload(c.Height, c.Block, v), c.Sigs[i]) {
			return false
		}
	}
	return true
}

func (r *Replica) onProposal(m *proposal) {
	n := m.Node
	if n == nil || n.Justify == nil {
		return
	}
	d := n.digest()
	if r.leaderOf(n.Height) != m.Proposer {
		return
	}
	if !r.cfg.Registry.Verify(r.cfg.SignerOf(r.cfg.Shard, m.Proposer),
		votePayload(n.Height, d, m.Proposer), m.Sig) {
		return
	}
	if !r.verifyQC(n.Justify) || n.Justify.Block != n.Parent {
		return
	}
	r.mu.Lock()
	if _, dup := r.nodes[d]; dup {
		r.mu.Unlock()
		return
	}
	r.nodes[d] = n
	if len(n.Cmds) > 0 && n.Height > r.maxCmdHt {
		r.maxCmdHt = n.Height
	}
	if n.Justify.Height > r.highQC.Height {
		r.highQC = n.Justify
	}
	// Drop pooled commands this block includes; they are in flight.
	for i := range n.Cmds {
		delete(r.pool, cmdDigest(&n.Cmds[i]))
	}
	// A replica that leads the next height proposes immediately when work
	// is pending (pipelining).
	pn := r.tryProposeLocked()
	// Safety rule (simplified for the gracious-execution scope): vote at
	// most once per height, only for monotonically increasing heights.
	if n.Height <= r.lastVote {
		r.commitChainLocked(d)
		q := r.takeExecLocked()
		r.mu.Unlock()
		r.propose(pn)
		r.runExec(q)
		return
	}
	r.lastVote = n.Height
	r.commitChainLocked(d)
	q := r.takeExecLocked()
	r.mu.Unlock()
	r.propose(pn)
	r.runExec(q)

	v := &vote{
		Height: n.Height, Block: d, Replica: r.index,
		Sig: r.signer.Sign(votePayload(n.Height, d, r.index)),
	}
	nextLeader := r.leaderOf(n.Height + 1)
	r.cfg.Net.Send(r.addr, transport.ReplicaAddr(r.cfg.Shard, nextLeader), v)
}

// onVote gathers votes as the leader of height+1 and forms the next QC.
func (r *Replica) onVote(m *vote) {
	if r.leaderOf(m.Height+1) != r.index {
		return
	}
	if !r.cfg.Registry.Verify(r.cfg.SignerOf(r.cfg.Shard, m.Replica),
		votePayload(m.Height, m.Block, m.Replica), m.Sig) {
		return
	}
	r.mu.Lock()
	byReplica := r.votes[m.Block]
	if byReplica == nil {
		byReplica = make(map[int32][64]byte)
		r.votes[m.Block] = byReplica
	}
	byReplica[m.Replica] = m.Sig
	if len(byReplica) < r.cfg.Quorum() {
		r.mu.Unlock()
		return
	}
	if r.highQC.Height >= m.Height {
		r.mu.Unlock()
		return // already have a QC at this height
	}
	newQC := &qc{Height: m.Height, Block: m.Block}
	for rep, sig := range byReplica {
		newQC.Voters = append(newQC.Voters, rep)
		newQC.Sigs = append(newQC.Sigs, sig)
	}
	r.highQC = newQC
	// Pipeline: immediately propose the next block (possibly empty) so
	// ancestors advance toward their three-chain commit.
	pn := r.tryProposeLocked()
	r.mu.Unlock()
	r.propose(pn)
}

// commitChainLocked applies the three-chain commit rule: when node b has a
// grandchild chain b ← b' ← b” connected by QCs, b and its ancestors
// commit. With our monotone heights it suffices to commit the
// great-grandparent of each newly inserted node. Caller holds r.mu.
func (r *Replica) commitChainLocked(d [32]byte) {
	n := r.nodes[d]
	if n == nil || n.Justify == nil {
		return
	}
	p := r.nodes[n.Justify.Block] // parent (has QC)
	if p == nil || p.Justify == nil {
		return
	}
	gp := r.nodes[p.Justify.Block] // grandparent (has QC)
	if gp == nil {
		return
	}
	// Three-chain formed through gp: commit gp and all its uncommitted
	// ancestors in height order.
	var chain []*node
	cur := gp
	for cur != nil && cur.Height > r.execHt {
		chain = append(chain, cur)
		cur = r.nodes[cur.Parent]
	}
	for i := len(chain) - 1; i >= 0; i-- {
		b := chain[i]
		if b.Height != r.execHt+1 && !(r.execHt == 0 && b.Height == 1) {
			// Height gap (missed block): stop; it will commit later.
			if b.Height <= r.execHt {
				continue
			}
		}
		r.execHt = b.Height
		if len(b.Cmds) > 0 {
			r.execQ = append(r.execQ, &smr.Block{Seq: b.Height, Cmds: b.Cmds})
		}
	}
}

// takeExecLocked drains the pending execution queue. Caller holds r.mu.
func (r *Replica) takeExecLocked() []*smr.Block {
	q := r.execQ
	r.execQ = nil
	return q
}

// runExec executes committed blocks in order, outside the lock.
func (r *Replica) runExec(q []*smr.Block) {
	for _, blk := range q {
		r.cfg.Executor.Execute(r.index, blk)
	}
}

// Group is a whole HotStuff shard.
type Group struct {
	cfg      Config
	replicas []*Replica
}

// NewGroup starts n replicas.
func NewGroup(cfg Config) *Group {
	g := &Group{cfg: cfg}
	for i := 0; i < cfg.N(); i++ {
		g.replicas = append(g.replicas, NewReplica(cfg, int32(i)))
	}
	return g
}

// Submit broadcasts a command to every replica's pool; the next leaders
// include it (execution deduplicates double inclusion).
func (g *Group) Submit(from transport.Addr, cmd smr.Command) {
	tos := make([]transport.Addr, len(g.replicas))
	for i, r := range g.replicas {
		tos[i] = r.addr
	}
	g.cfg.Net.SendAll(from, tos, &submitMsg{Cmd: cmd})
}

// Replicas exposes group members.
func (g *Group) Replicas() []*Replica { return g.replicas }

// Close stops the group.
func (g *Group) Close() {
	for _, r := range g.replicas {
		r.Close()
	}
}

// heightSnapshot reports the highest QC height this replica has observed
// (test instrumentation).
func (r *Replica) heightSnapshot() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.highQC.Height
}
