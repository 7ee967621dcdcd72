package replica

import (
	"repro/internal/cryptoutil"
	"repro/internal/transport"
	"repro/internal/types"
)

// onRead handles the execution-phase read (paper §4.1 step 2): enforce the
// δ bound, record the RTS, and return the latest committed and prepared
// versions below the transaction timestamp, MACed under the key this
// replica shares with the requesting client. No signature: the reply
// convinces only that client, never a third party (see cryptoutil/mac.go).
func (r *Replica) onRead(from transport.Addr, m *types.ReadRequest) {
	if r.cfg.Byzantine != nil && r.cfg.Byzantine.DropRead(m.Key) {
		return
	}
	if !r.withinDelta(m.Ts) {
		// Paper: the replica ignores over-δ requests. The client's read
		// quorum absorbs the silence.
		return
	}
	var key cryptoutil.MACKey
	if r.macKeys != nil {
		var ok bool
		if key, ok = r.macKeys.Key(m.ClientKey); !ok {
			// No valid exchange key: the client could not check any
			// reply we sent.
			return
		}
	}
	r.Stats.Reads.Add(1)
	res := r.store.Read(m.Key, m.Ts)
	reply := &types.ReadReply{
		ReqID:     m.ReqID,
		Key:       m.Key,
		ShardID:   r.cfg.Shard,
		ReplicaID: r.cfg.Index,
		Committed: res.Committed,
		Prepared:  res.Prepared,
	}
	if r.macKeys != nil {
		reply.MAC = cryptoutil.SumReadMAC(&key, reply)
	}
	r.send(from, reply)
}

// withinDelta implements the timestamp admission bound: accept iff
// ts.Time ≤ local clock + δ.
func (r *Replica) withinDelta(ts types.Timestamp) bool {
	return ts.Time <= r.cfg.Clock.NowMicros()+r.cfg.DeltaMicros
}
