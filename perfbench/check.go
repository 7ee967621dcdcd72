package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/benchharness"
	"repro/internal/types"
	"repro/internal/verify"
)

// auditKeys bounds how many written keys the final-read audit reads back.
const auditKeys = 200

// checkResult is the outcome of checking one cluster's whole history.
type checkResult struct {
	Committed int   // transactions in the DSG
	Audited   int   // keys read back
	Bad       int   // transactions counted failed by the check
	Err       error // first violation, nil when the history is correct
}

// checkHistory feeds every committed transaction to the DSG check, then
// reads back a seeded sample of written keys through a fresh session and
// compares each with the value of its last committed writer. A DSG
// violation counts every committed transaction as failed, since the check
// cannot say which one is wrong; an audit mismatch counts one.
func checkHistory(sys benchharness.System, committed []*types.TxMeta, unsure []string, seed int64) checkResult {
	res := checkResult{Committed: len(committed)}
	var dsg verify.Checker
	for _, m := range committed {
		dsg.Add(verify.FromMeta(m))
	}
	if err := dsg.CheckSerializable(); err != nil {
		res.Bad, res.Err = len(committed), err
		return res
	}

	want := lastWrites(committed)
	skip := make(map[string]bool, len(unsure))
	for _, k := range unsure {
		skip[k] = true
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		if !skip[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > auditKeys {
		keys = keys[:auditKeys]
	}
	tx := sys.NewSession().Begin()
	defer tx.Abort()
	for _, k := range keys {
		res.Audited++
		got, err := tx.Read(k)
		if err == nil && !bytes.Equal(got, want[k]) {
			err = fmt.Errorf("read %q = %x, last committed write was %x", k, got, want[k])
		}
		if err != nil {
			res.Bad++
			if res.Err == nil {
				res.Err = fmt.Errorf("final-read audit: %w", err)
			}
		}
	}
	return res
}

// lastWrites maps each written key to the value of its committed writer
// with the highest timestamp: the version MVTSO makes current.
func lastWrites(committed []*types.TxMeta) map[string][]byte {
	ts := make(map[string]types.Timestamp)
	val := make(map[string][]byte)
	for _, m := range committed {
		for _, w := range m.WriteSet {
			if cur, ok := ts[w.Key]; !ok || cur.Less(m.Timestamp) {
				ts[w.Key], val[w.Key] = m.Timestamp, w.Value
			}
		}
	}
	return val
}
