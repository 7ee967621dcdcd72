package cryptoutil

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// VerifyPool is a bounded worker pool for signature verification and other
// CPU-heavy message validation. It exists so a replica's ingest path can
// validate crypto in parallel, off every protocol lock: the transport's
// dispatch goroutine hands each message to the pool and the (thread-safe)
// handlers run concurrently on its workers.
//
// Two submission modes are provided. Go enqueues one top-level task and
// may block when the queue is full (backpressure toward the transport).
// All fans a batch of small boolean checks across the workers through a
// separate sub-task queue: whatever the queue cannot take runs inline on
// the caller, and while waiting the caller helps drain *sub-tasks only* —
// never whole message handlers — so All is safe to call from a pool
// worker (which is exactly what happens when a replica handler validates
// an ST2 tally from inside the pool) and a cheap batch never inherits the
// latency of an unrelated heavy handler.
type VerifyPool struct {
	tasks    chan func() // top-level tasks (message handlers)
	subTasks chan func() // batch sub-tasks (individual signature checks)
	workers  int
	wg       sync.WaitGroup // workers
	inflight sync.WaitGroup // accepted, not yet executed tasks

	// mu guards closed, fencing new submissions off from Close.
	mu     sync.Mutex
	closed bool
}

// NewVerifyPool starts a pool with the given number of workers;
// workers <= 0 defaults to GOMAXPROCS.
func NewVerifyPool(workers int) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &VerifyPool{
		tasks:    make(chan func(), workers*16),
		subTasks: make(chan func(), workers*16),
		workers:  workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool size.
func (p *VerifyPool) Workers() int { return p.workers }

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case fn, ok := <-p.tasks:
			if !ok {
				// Close drained every accepted task (inflight barrier)
				// before closing the channel; nothing can be pending.
				return
			}
			fn()
			p.inflight.Done()
		case fn := <-p.subTasks:
			fn()
			p.inflight.Done()
		}
	}
}

// accept reserves one task slot; it fails once the pool is closed.
func (p *VerifyPool) accept() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.inflight.Add(1)
	return true
}

// Go runs fn on a pool worker, blocking while the queue is full. It
// reports whether fn was accepted; after Close it drops fn and returns
// false.
func (p *VerifyPool) Go(fn func()) bool {
	if !p.accept() {
		return false
	}
	p.tasks <- fn
	return true
}

// trySub is the non-blocking sub-task submission used by All.
func (p *VerifyPool) trySub(fn func()) bool {
	if !p.accept() {
		return false
	}
	select {
	case p.subTasks <- fn:
		return true
	default:
		p.inflight.Done()
		return false
	}
}

// All evaluates task(0..n-1) and reports whether every call returned true.
// Tasks should be small leaf checks (one signature each). All submits one
// helper per worker it may use (at most n-1) to the sub-task queue; each
// helper, and then the caller, claims indices one at a time until none
// are left, so the batch costs one helper closure however large it is.
// Whatever the queue cannot take (everything, once the pool is closed)
// the caller runs inline. When no index is left to claim, the caller
// drains other sub-tasks and then waits only for indices already claimed,
// which running goroutines are executing: All therefore always completes
// without external capacity and never deadlocks when invoked from a pool
// worker. After the first failure the remaining tasks are skipped.
func (p *VerifyPool) All(n int, task func(i int) bool) bool {
	switch {
	case n <= 0:
		return true
	case n == 1:
		return task(0)
	}
	b := &allBatch{n: int64(n), task: task}
	b.left.Store(int64(n))
	b.pending.Add(n)
	help := b.help
	for range min(n-1, p.workers) {
		if !p.trySub(help) {
			break
		}
	}
	b.help()
	for b.left.Load() > 0 {
		select {
		case fn := <-p.subTasks:
			// Help with sub-task work (ours or another batch's) while
			// waiting; sub-tasks are leaf checks, so this neither inverts
			// latency nor nests unboundedly.
			fn()
			p.inflight.Done()
		default:
			b.pending.Wait()
		}
	}
	return !b.failed.Load()
}

// allBatch is one All call's shared state.
type allBatch struct {
	n      int64
	task   func(i int) bool
	next   atomic.Int64 // next unclaimed index
	failed atomic.Bool
	// left counts the indices not yet finished; pending is the same count
	// as a WaitGroup, for the caller to block on once it cannot help.
	left    atomic.Int64
	pending sync.WaitGroup
}

// help claims and runs indices until none are left.
func (b *allBatch) help() {
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		if !b.failed.Load() && !b.task(int(i)) {
			b.failed.Store(true)
		}
		b.left.Add(-1)
		b.pending.Done()
	}
}

// Close stops accepting tasks, waits for every accepted task to finish,
// and shuts the workers down. It is idempotent and safe to call
// concurrently with Go/All: submissions racing with Close either complete
// before Close returns or are dropped.
func (p *VerifyPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.inflight.Wait()
	close(p.tasks)
	p.wg.Wait()
}
