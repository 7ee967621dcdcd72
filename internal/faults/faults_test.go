package faults

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

func TestVoteAbortReplica(t *testing.T) {
	var s VoteAbortReplica
	if s.MutateVote(types.TxID{}, types.VoteCommit) != types.VoteAbort {
		t.Fatal("commit vote not flipped")
	}
	if s.DropRead("k") {
		t.Fatal("reads should pass through")
	}
}

func TestUnresponsiveReplica(t *testing.T) {
	s := UnresponsiveReplica{Reads: true, Votes: true}
	if s.MutateVote(types.TxID{}, types.VoteCommit) != types.VoteNone {
		t.Fatal("vote not suppressed")
	}
	if !s.DropRead("k") {
		t.Fatal("read not dropped")
	}
	quiet := UnresponsiveReplica{}
	if quiet.MutateVote(types.TxID{}, types.VoteAbort) != types.VoteAbort {
		t.Fatal("passive strategy changed the vote")
	}
	if quiet.DropRead("k") {
		t.Fatal("passive strategy dropped a read")
	}
}

// txid derives a distinct transaction id from an integer. Flaky vote
// decisions are deterministic per transaction (a re-delivered vote is
// mishandled identically), so distribution is measured across distinct
// transactions, not repeated calls.
func txid(i int) types.TxID {
	var id types.TxID
	id[0], id[1], id[2], id[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
	return id
}

func TestFlakyReplicaDistribution(t *testing.T) {
	f := NewFlakyReplica(1, 0.3, 0.2, 0.5)
	aborts, silents, passes := 0, 0, 0
	for i := 0; i < 10_000; i++ {
		switch f.MutateVote(txid(i), types.VoteCommit) {
		case types.VoteAbort:
			aborts++
		case types.VoteNone:
			silents++
		default:
			passes++
		}
	}
	frac := func(n int) float64 { return float64(n) / 10_000 }
	if fa, fs := frac(aborts), frac(silents); fa < 0.25 || fa > 0.35 || fs < 0.15 || fs > 0.25 {
		t.Fatalf("flaky distribution off: abort=%.3f silent=%.3f", fa, fs)
	}
	if passes == 0 {
		t.Fatal("no votes passed through")
	}
	drops := 0
	for i := 0; i < 10_000; i++ {
		if f.DropRead("k") {
			drops++
		}
	}
	if fd := frac(drops); fd < 0.45 || fd > 0.55 {
		t.Fatalf("drop rate off: %.3f", fd)
	}
}

// TestFaultScheduleDeterministic is the -race regression for the
// determinism contract of the package doc: fault decisions derive from
// the seed and the identity of the decision point, so the schedule one
// link (or one transaction, or one key) observes is identical across
// same-seed runs no matter how concurrent goroutines interleave. Before
// per-identity derivation, all links shared one rng and any concurrency
// reshuffled every decision.
func TestFaultScheduleDeterministic(t *testing.T) {
	links := [][2]transport.Addr{
		{transport.ClientAddr(1), transport.ReplicaAddr(0, 0)},
		{transport.ClientAddr(1), transport.ReplicaAddr(0, 1)},
		{transport.ClientAddr(2), transport.ReplicaAddr(0, 0)},
		{transport.ReplicaAddr(0, 0), transport.ClientAddr(1)},
	}
	const perLink = 2000

	// One run: every link hammered from its own goroutine, concurrently.
	runDrops := func(seed int64) [][]bool {
		chaos := NewChaos(seed)
		chaos.SetDrop(0.3)
		policy := chaos.Policy()
		out := make([][]bool, len(links))
		var wg sync.WaitGroup
		for i, l := range links {
			i, l := i, l
			out[i] = make([]bool, perLink)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perLink; j++ {
					_, drop := policy(l[0], l[1], nil)
					out[i][j] = drop
				}
			}()
		}
		wg.Wait()
		return out
	}
	a, b := runDrops(99), runDrops(99)
	for i := range links {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("link %d decision %d differs between same-seed runs", i, j)
			}
		}
	}
	// Different seeds must differ somewhere (sanity: the seed is live).
	c := runDrops(100)
	same := true
	for i := range links {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seed 99 and 100 produced identical schedules")
	}

	// Flaky votes: concurrent hammering over a shared id set must agree
	// with a serial same-seed pass, id by id.
	serial := NewFlakyReplica(7, 0.3, 0.2, 0)
	want := make(map[types.TxID]types.Vote)
	for i := 0; i < 500; i++ {
		want[txid(i)] = serial.MutateVote(txid(i), types.VoteCommit)
	}
	conc := NewFlakyReplica(7, 0.3, 0.2, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if got := conc.MutateVote(txid(i), types.VoteCommit); got != want[txid(i)] {
					select {
					case errs <- fmt.Sprintf("tx %d: concurrent vote %v != serial %v", i, got, want[txid(i)]):
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}

	// Read drops: each key's decision sequence is (seed, key, n)-derived,
	// so two same-seed replicas agree per key even when calls to
	// different keys interleave arbitrarily.
	f1, f2 := NewFlakyReplica(11, 0, 0, 0.4), NewFlakyReplica(11, 0, 0, 0.4)
	keys := []string{"a", "b", "c"}
	seq1 := make(map[string][]bool)
	for i := 0; i < 300; i++ {
		k := keys[i%len(keys)]
		seq1[k] = append(seq1[k], f1.DropRead(k))
	}
	var wg2 sync.WaitGroup
	seq2 := make([][]bool, len(keys))
	for i, k := range keys {
		i, k := i, k
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for j := 0; j < 100; j++ {
				seq2[i] = append(seq2[i], f2.DropRead(k))
			}
		}()
	}
	wg2.Wait()
	for i, k := range keys {
		for j, d := range seq2[i] {
			if d != seq1[k][j] {
				t.Fatalf("key %q decision %d differs between interleavings", k, j)
			}
		}
	}
}

// TestChaosPartition pins the partition semantics: exactly-one-isolated
// endpoints are cut, the isolated island keeps internal connectivity,
// and Heal restores everything.
func TestChaosPartition(t *testing.T) {
	c := NewChaos(1)
	policy := c.Policy()
	r0, r1 := transport.ReplicaAddr(0, 0), transport.ReplicaAddr(0, 1)
	cl := transport.ClientAddr(9)
	pass := func(from, to transport.Addr) bool {
		_, drop := policy(from, to, nil)
		return !drop
	}
	if !pass(cl, r0) || !pass(r0, r1) {
		t.Fatal("inactive chaos dropped traffic")
	}
	c.Isolate(r0)
	if pass(cl, r0) || pass(r0, cl) || pass(r0, r1) {
		t.Fatal("isolated replica still reachable")
	}
	if !pass(cl, r1) {
		t.Fatal("partition cut an unrelated link")
	}
	c.Isolate(r0, r1)
	if !pass(r0, r1) {
		t.Fatal("island-internal link cut")
	}
	if pass(cl, r0) {
		t.Fatal("client reached the island")
	}
	c.Heal()
	if !pass(cl, r0) || !pass(r0, r1) {
		t.Fatal("heal did not restore connectivity")
	}
}

// TestChaosDropDeterministic: the background drop stream is per-link
// seeded.
func TestChaosDropDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		c := NewChaos(seed)
		c.SetDrop(0.5)
		policy := c.Policy()
		out := make([]bool, 500)
		for i := range out {
			_, out[i] = policy(transport.ClientAddr(1), transport.ReplicaAddr(0, 0), nil)
		}
		return out
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between same-seed runs", i)
		}
	}
	drops := 0
	for _, d := range a {
		if d {
			drops++
		}
	}
	if drops < 150 || drops > 350 {
		t.Fatalf("drop rate implausible for p=0.5: %d/500", drops)
	}
}

// TestDiskChaos pins targeting and arm/disarm.
func TestDiskChaos(t *testing.T) {
	var d DiskChaos
	if d.Delay(0, 0) != 0 {
		t.Fatal("disarmed chaos injected delay")
	}
	d.Arm(3*time.Millisecond, [2]int32{0, 1})
	if d.Delay(0, 1) != 3*time.Millisecond {
		t.Fatal("targeted replica got no delay")
	}
	if d.Delay(0, 0) != 0 {
		t.Fatal("untargeted replica got a delay")
	}
	d.Arm(time.Millisecond) // no targets = everyone
	if d.Delay(1, 4) != time.Millisecond {
		t.Fatal("arm-all missed a replica")
	}
	d.Disarm()
	if d.Delay(0, 1) != 0 {
		t.Fatal("disarm did not stop the injection")
	}
}

// TestEquivocatingReplica pins the per-recipient equivocation contract:
// honest while disarmed, split-brain while armed (some recipients see the
// stored vote, some the opposite), deterministic per seed, and the stored
// vote itself never mutated.
func TestEquivocatingReplica(t *testing.T) {
	e := NewEquivocatingReplica(3)
	id := txid(42)
	to := transport.ClientAddr(1)
	if e.EquivocateVote(id, to, types.VoteCommit) != types.VoteCommit {
		t.Fatal("disarmed equivocator flipped a vote")
	}
	if e.MutateVote(id, types.VoteCommit) != types.VoteCommit {
		t.Fatal("equivocator mutated the stored vote")
	}
	e.Arm(true)
	flipped, honest := 0, 0
	for i := 0; i < 64; i++ {
		switch e.EquivocateVote(id, transport.ClientAddr(int32(i)), types.VoteCommit) {
		case types.VoteAbort:
			flipped++
		case types.VoteCommit:
			honest++
		}
	}
	if flipped == 0 || honest == 0 {
		t.Fatalf("armed equivocator not split-brain: %d flipped, %d honest", flipped, honest)
	}
	// Deterministic per (seed, tx, recipient).
	e2 := NewEquivocatingReplica(3)
	e2.Arm(true)
	for i := 0; i < 64; i++ {
		a := e.EquivocateVote(id, transport.ClientAddr(int32(i)), types.VoteCommit)
		b := e2.EquivocateVote(id, transport.ClientAddr(int32(i)), types.VoteCommit)
		if a != b {
			t.Fatalf("recipient %d: same-seed equivocators disagree", i)
		}
	}
	if e.EquivocateVote(id, to, types.VoteNone) != types.VoteNone {
		t.Fatal("suppressed vote resurrected")
	}
}
