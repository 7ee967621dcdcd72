package store

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// hotKeyStore builds a store whose key "hot" has n committed versions and
// n reader records: transaction i, at time 10i, read the version written
// at 10(i-1) and wrote its own.
func hotKeyStore(b *testing.B, n int) *Store {
	s := New()
	s.ApplyGenesis("hot", []byte("v0"))
	var prev types.Timestamp
	for i := 1; i <= n; i++ {
		m := meta(ts(uint64(10*i), 1), map[string]types.Timestamp{"hot": prev}, map[string]string{"hot": "v"})
		id := m.ID()
		if res := s.CheckAndPrepare(m, id); res.Outcome != CheckOK {
			b.Fatalf("history prepare %d: %v", i, res.Outcome)
		}
		s.Finalize(id, m, types.DecisionCommit, nil)
		prev = m.Timestamp
	}
	return s
}

// BenchmarkCheckAndPrepareHotKey measures one prepare-and-withdraw cycle
// (CheckAndPrepare, then RemovePrepared) of a current transaction that
// reads the newest version of a key and writes it, against a history of
// n versions and n readers on that key. The state is the same after every
// iteration. A check that scans the whole history grows linearly with n;
// one that locates entries by timestamp stays near flat.
func BenchmarkCheckAndPrepareHotKey(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		s := hotKeyStore(b, n)
		m := meta(ts(uint64(10*n+5), 2), map[string]types.Timestamp{"hot": ts(uint64(10*n), 1)}, map[string]string{"hot": "x"})
		id := m.ID()
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := s.CheckAndPrepare(m, id); res.Outcome != CheckOK {
					b.Fatalf("prepare: %v", res.Outcome)
				}
				s.RemovePrepared(id)
			}
		})
	}
}
