package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"slices"

	"wayfinder/internal/core"
)

// pinnedDigests holds, per workload, the result digest of round 0 at
// -seed 1 and the benchmark's sizes. A run with -seed 1 fails when its
// round 0 digests differently, so a change that alters what sessions
// compute cannot pass as a speed-up. A change to the workloads or their
// sizes re-pins them.
var pinnedDigests = map[string]string{
	"deeptune-resume": "4828729d03c40a60013120886584763e236a5da1778d4da2185431178d9a8e90",
	"bayes-window":    "7f52fc3f93e75250202eb668c9546b07795a73d515dadcb3e3fe9bf9410cc9dc",
	"fleet-churn":     "7ded5b7229eff90e13995bb639eb1601f069dc724f16f3a1d9e72e09594db62b",
	"wfd-mixed":       "668c87c4dc2ce0c6486961c6766e0cd0dbd8600d81a622ca548d2a2bd2eb05b5",
}

// resultDigest is SHA-256 over each observation's iteration, canonical
// configuration, metric bits, crash flag, stage, virtual start and end,
// worker and host. It leaves out DecisionCost, the one host-time field
// of a result.
func resultDigest(history []core.Result) string {
	h := sha256.New()
	var buf []byte
	for i := range history {
		buf = appendResult(buf[:0], &history[i])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendResult appends the digested fields of r to buf.
func appendResult(buf []byte, r *core.Result) []byte {
	kv := r.ConfigKV
	if kv == nil && r.Config != nil {
		kv = r.Config.KV()
	}
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	str := func(s string) { u64(uint64(len(s))); buf = append(buf, s...) }
	u64(uint64(r.Iteration))
	u64(uint64(len(kv)))
	for _, k := range slices.Sorted(maps.Keys(kv)) {
		str(k)
		str(kv[k])
	}
	u64(math.Float64bits(r.Metric))
	crashed := uint64(0)
	if r.Crashed {
		crashed = 1
	}
	u64(crashed)
	str(r.Stage)
	u64(math.Float64bits(r.StartSec))
	u64(math.Float64bits(r.EndSec))
	u64(uint64(r.Worker))
	u64(uint64(r.Host))
	return buf
}

// sameResult reports whether two results agree on every digested field.
func sameResult(a, b *core.Result) bool {
	return string(appendResult(nil, a)) == string(appendResult(nil, b))
}

// checkPin compares a round-0 digest with its pin. An empty pin checks
// nothing.
func checkPin(pins map[string]string, workload, got string) error {
	if want := pins[workload]; want != "" && want != got {
		return fmt.Errorf("%s: result digest %s, pinned %s", workload, got, want)
	}
	return nil
}
