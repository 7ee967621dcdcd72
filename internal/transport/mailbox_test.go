package transport

import "testing"

// TestMailboxRingFIFO pushes and pops across wrap-around and growth of
// the ring: order is FIFO, and every popped slot is cleared so the queue
// keeps no delivered message reachable.
func TestMailboxRingFIFO(t *testing.T) {
	m := newMailbox()
	next, want := 0, 0
	push := func(k int) {
		for range k {
			if !m.push(envelope{msg: next}) {
				t.Fatal("unbounded mailbox refused a push")
			}
			next++
		}
	}
	pop := func(k int) {
		for range k {
			e, ok := m.pop()
			if !ok || e.msg != want {
				t.Fatalf("popped %v (ok %v), want %d", e.msg, ok, want)
			}
			want++
		}
	}
	push(10)
	pop(7)
	push(20) // wraps, then grows while wrapped
	pop(13)
	push(40)
	pop(50)
	for i, e := range m.buf {
		if e.msg != nil {
			t.Fatalf("slot %d still holds %v after every message was popped", i, e.msg)
		}
	}
	m.close()
	if _, ok := m.pop(); ok {
		t.Fatal("pop on a closed empty mailbox succeeded")
	}
}

// TestMailboxSteadyStateAllocs pins a push/pop pair at zero allocations
// once the ring has grown to the queue's depth.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := newMailbox()
	msg := &struct{ n int }{}
	e := envelope{from: Addr{Shard: 0, Index: 1}, msg: msg}
	for range 4 {
		m.push(e)
	}
	if n := testing.AllocsPerRun(500, func() {
		m.push(e)
		m.pop()
	}); n != 0 {
		t.Fatalf("push+pop allocates %.1f times, want 0", n)
	}
}
