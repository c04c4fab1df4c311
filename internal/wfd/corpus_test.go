package wfd

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wayfinder/internal/corpus"
)

// corpusEvents filters a job's retained wire-event log down to corpus
// events.
func corpusEvents(t *testing.T, d *Daemon, id string) []WireEvent {
	t.Helper()
	backlog, _, cancel, err := d.Attach(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var out []WireEvent
	for _, ev := range backlog {
		if ev.Type == "corpus" {
			out = append(out, ev)
		}
	}
	return out
}

// TestCorpusSharedAcrossJobs: the daemon accumulates tuning memory. A
// first job deposits its outcome into the shared corpus; a second,
// similar job warm-starts from it (both legs visible as wire events), the
// daemon is crash-killed mid-second-job, and the restarted daemon
// finishes it byte-identically to an uninterrupted run against the same
// one-entry corpus — the warm start pinned to its admission-time query,
// not the corpus that has since grown.
func TestCorpusSharedAcrossJobs(t *testing.T) {
	// The full linux space crashes most early probes, and a deposit needs
	// at least two non-crashed observations — budgets are sized for that.
	source := JobSpec{Tenant: "a", App: "redis", Searcher: "deeptune", Seed: 11, Iterations: 120, Corpus: true}
	target := JobSpec{Tenant: "b", App: "nginx", Searcher: "deeptune", Seed: 12, Iterations: 200, Corpus: true, WarmStartK: 2}

	// Uninterrupted reference: same spec sequence on its own corpus.
	refCorpus := t.TempDir()
	var refReport []byte
	var refHash string
	{
		d, err := New(Config{CorpusDir: refCorpus, Steppers: 1, Quantum: 8})
		if err != nil {
			t.Fatal(err)
		}
		srcID, err := d.Submit(source)
		if err != nil {
			t.Fatal(err)
		}
		waitAll(t, d, srcID)
		refHash = d.Status().CorpusHash
		tgtID, err := d.Submit(target)
		if err != nil {
			t.Fatal(err)
		}
		waitAll(t, d, tgtID)
		if refReport, err = d.ReportJSON(tgtID); err != nil {
			t.Fatal(err)
		}
		d.Kill()
	}

	state, corpusDir := t.TempDir(), t.TempDir()
	cfg := Config{StateDir: state, CorpusDir: corpusDir, Steppers: 1, Quantum: 8, JournalEvery: 16, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := d1.Status(); st.CorpusEntries != 0 {
		t.Fatalf("fresh corpus holds %d entries", st.CorpusEntries)
	}

	srcID, err := d1.Submit(source)
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, d1, srcID)
	if st := d1.Status(); st.CorpusEntries != 1 || st.CorpusHash != refHash {
		t.Fatalf("after source job: %d entries, hash %s (want 1 entry, hash %s)",
			st.CorpusEntries, st.CorpusHash, refHash)
	}
	evs := corpusEvents(t, d1, srcID)
	if len(evs) != 1 || evs[0].Kind != "deposit" || evs[0].Digest == "" {
		t.Fatalf("source job corpus events: %+v, want one deposit", evs)
	}

	// Admit the warm-started job while dispatch is held: its admission
	// snapshot (carrying the resolved warm start) must hit the journal
	// before any stepping, closing the crash window entirely.
	d1.Hold()
	tgtID, err := d1.Submit(target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(state, "jobs", tgtID, "snap.json")); err != nil {
		t.Fatalf("warm-started job has no admission snapshot: %v", err)
	}
	d1.Release()

	// Kill mid-flight: after progress, before completion.
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := d1.JobStatusByID(tgtID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Observed >= 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("target job never progressed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	if st, _ := d1.JobStatusByID(tgtID); st.State == "done" {
		t.Fatal("target job finished before the kill; nothing was in flight")
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	if st := d2.Status(); st.Resumed != 1 {
		t.Fatalf("resumed %d jobs from snapshots, want 1", st.Resumed)
	}
	waitAll(t, d2, tgtID)

	got, err := d2.ReportJSON(tgtID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refReport) {
		t.Error("warm-started report after crash-restart differs from uninterrupted run")
	}
	// The resumed session re-announces its warm start into the fresh hub
	// and deposits at completion — both corpus legs visible post-restart.
	evs = corpusEvents(t, d2, tgtID)
	if len(evs) != 2 {
		t.Fatalf("target job corpus events after restart: %+v, want warmstart+deposit", evs)
	}
	if evs[0].Kind != "warmstart" || evs[0].Seeds != 2 || !evs[0].DTM || evs[0].Hash != refHash {
		t.Fatalf("warmstart event %+v, want 2 seeds + dtm against admission-time hash %s", evs[0], refHash)
	}
	if evs[1].Kind != "deposit" || evs[1].Digest == "" {
		t.Fatalf("deposit event %+v", evs[1])
	}
	if st := d2.Status(); st.CorpusEntries != 2 {
		t.Fatalf("corpus holds %d entries after both jobs, want 2", st.CorpusEntries)
	}

	// The on-disk corpus is the same one a reference daemon grew: memory
	// is deterministic all the way down to the directory bytes.
	a, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpus.Open(refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("crash-restart corpus hash %s, reference %s", a.Hash(), b.Hash())
	}
}

// TestCorpusAdmission: corpus jobs need a corpus-configured daemon;
// warm_start_k needs corpus and a checkpointable searcher.
func TestCorpusAdmission(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if _, err := d.Submit(JobSpec{Searcher: "random", Seed: 1, Iterations: 10, Corpus: true}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("corpus job on a corpusless daemon: %v, want ErrBadSpec", err)
	}
	if err := (JobSpec{Searcher: "random", Seed: 1, Iterations: 10, WarmStartK: 2}).Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("warm_start_k without corpus: %v, want ErrBadSpec", err)
	}
	// Unicorn checkpoints like every other searcher, so a resumed job
	// replays its warm start from the snapshot: warm_start_k applies.
	if err := (JobSpec{Searcher: "unicorn", Seed: 1, Iterations: 10, Corpus: true, WarmStartK: 2}).Validate(); err != nil {
		t.Fatalf("warm_start_k on unicorn rejected: %v", err)
	}
	if err := (JobSpec{Searcher: "unicorn", Seed: 1, Iterations: 10, Corpus: true}).Validate(); err != nil {
		t.Fatalf("deposit-only unicorn rejected: %v", err)
	}
}
