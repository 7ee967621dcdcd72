package store

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

// BenchmarkPrepareStoreOnly isolates the locking regimes without crypto:
// raw disjoint-key CheckAndPrepare throughput on the single-stripe store
// versus the striped store. On multi-core hardware this is where the
// stripe parallelism shows; on a single core the two converge (there is
// no second core to run the disjoint prepare on).
func BenchmarkPrepareStoreOnly(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		stripes int
	}{
		{"global-lock", 1},
		{fmt.Sprintf("striped-%d", DefaultStripes), DefaultStripes},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s := NewStriped(cfg.stripes)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					m := &types.TxMeta{
						Timestamp: types.Timestamp{Time: n, ClientID: 1 + n%64},
						WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("key-%03d", n%512), Value: []byte("v")}},
						Shards:    []int32{0},
					}
					if s.CheckAndPrepare(m, m.ID()).Outcome != CheckOK {
						b.Fatal("disjoint-key prepare rejected")
					}
				}
			})
		})
	}
}
