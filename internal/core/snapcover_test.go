package core

import (
	"reflect"
	"testing"

	"wayfinder/internal/snapcover"
)

// TestSessionSnapshotCoverage pins the Session ↔ sessionSnapshot field
// mapping: adding session state without serializing it (or without a
// written reason why restore can rebuild it) fails here, immediately,
// instead of as a diverging resumed run much later.
func TestSessionSnapshotCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Session](), reflect.TypeFor[sessionSnapshot](), snapcover.Spec{
		Covered: map[string]string{
			"opts":      "Options",
			"report":    "Report",
			"base":      "BaseSec",
			"folded":    "FoldedSec",
			"next":      "Next",
			"observed":  "Observed",
			"done":      "Done",
			"round":     "Round",
			"inflight":  "Inflight",
			"exhausted": "Exhausted",
			"frontier":  "Frontier",
			"cache":     "Cache",
			"retries":   "Retries",
			"faultCur":  "FaultCursor",
			// The per-worker clock and stall positions serialize the wall
			// clock; workers carry the rest of the evaluator state.
			"wall":    "Workers",
			"workers": "Workers",
			// The batch view's checkpoint is the searcher's, wrapped with
			// the adapter's pending set when the searcher is adapted.
			"batcher": "SearcherState",
			// Recomputed on restore by summing Report.History decision costs.
			"decisionNS": "Report",
			// Corpus warm-start state: the unconsumed seed queue and
			// whether DTM weights were applied travel explicitly, so a
			// restored session replays the original query answer instead
			// of re-asking a corpus that may have grown since.
			"seeds":   "CorpusSeedKVs",
			"warmDTM": "WarmDTM",
		},
		Excluded: map[string]string{
			"eng":             "construction-time: the restore engine is built with the same constructor arguments",
			"obsMu":           "sync primitive",
			"observers":       "event callbacks cannot serialize; consumers re-register after restore",
			"staleBound":      "derived from Options in newSession",
			"busy":            "recomputed on restore by counting non-nil Inflight entries",
			"corpusAnnounced": "event bookkeeping: a restored warm session harmlessly re-announces its warm start to its (re-registered) observers",
		},
		Synthesized: map[string]string{
			"Version":      "snapshot format tag",
			"SearcherName": "validation: checked against the restore engine's searcher",
			"MetricName":   "validation: checked against the restore engine's metric",
			"MetricState":  "the engine metric's CheckpointMetric payload; the metric lives on the (excluded) engine",
		},
	})
}

// TestWorkerSnapshotCoverage pins evalState ↔ workerSnap the same way.
func TestWorkerSnapshotCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[evalState](), reflect.TypeFor[workerSnap](), snapcover.Spec{
		Covered: map[string]string{
			"clock":     "ClockSec",
			"wall":      "StallSec",
			"noise":     "RNG",
			"imageKey":  "ImageKey",
			"haveImage": "HaveImage",
			"bootKey":   "BootKey",
			"haveBoot":  "HaveBoot",
			"builds":    "Builds",
		},
		Excluded: map[string]string{
			"worker": "positional: the worker's index in the snapshot's Workers list",
			"host":   "derived from Options.HostOf at construction",
			"speed":  "derived from Options.workerSpeed at construction",
		},
	})
}
