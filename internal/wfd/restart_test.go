package wfd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// runToCompletion serves the specs on a fresh daemon and returns each
// job's canonical report bytes — the uninterrupted reference.
func runToCompletion(t *testing.T, cfg Config, specs []JobSpec) map[string][]byte {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	ids := make([]string, len(specs))
	for i, sp := range specs {
		if ids[i], err = d.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	waitAll(t, d, ids...)
	out := map[string][]byte{}
	for _, id := range ids {
		rep, err := d.ReportJSON(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = rep
	}
	return out
}

// TestRestartByteIdentical is the crash-restart guarantee, in-process: a
// journaling daemon is killed mid-flight (no graceful snapshot — the
// journal holds only the periodic writes), a second daemon recovers the
// state dir, and every job's canonical final report is byte-identical to
// an uninterrupted run of the same specs.
func TestRestartByteIdentical(t *testing.T) {
	specs := []JobSpec{
		{Tenant: "a", Searcher: "random", Seed: 11, Iterations: 300},
		{Tenant: "a", Searcher: "bayesian", Seed: 12, Iterations: 120, Workers: 3},
		{Tenant: "b", Searcher: "deeptune", Seed: 13, Iterations: 60},
		{Tenant: "b", Searcher: "grid", Seed: 14, Iterations: 200, Workers: 2, Async: true, Staleness: 1},
	}
	reference := runToCompletion(t, Config{Steppers: 2, Quantum: 7}, specs)

	state := t.TempDir()
	cfg := Config{StateDir: state, Steppers: 2, Quantum: 7, JournalEvery: 16, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		if ids[i], err = d1.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	// Let the daemon get partway through, then kill it without journaling
	// (Kill, not Shutdown — the in-process kill -9).
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := d1.Status()
		if st.ServedTotal >= 150 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reached mid-flight: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	if st := d1.Status(); st.Done == len(specs) {
		t.Fatal("all jobs finished before the kill; nothing was in flight")
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	st := d2.Status()
	if st.Recovered != len(specs) {
		t.Fatalf("recovered %d jobs, want %d", st.Recovered, len(specs))
	}
	waitAll(t, d2, ids...)
	for i, id := range ids {
		got, err := d2.ReportJSON(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !bytes.Equal(got, reference[id]) {
			t.Errorf("job %d (%s/%s): report after crash-restart differs from uninterrupted run",
				i, specs[i].Searcher, id)
		}
	}
}

// TestRestartResumesFromSnapshot: recovery must actually resume from
// journal snapshots (not silently restart everything), and the resumed
// session continues from the journaled position.
func TestRestartResumesFromSnapshot(t *testing.T) {
	state := t.TempDir()
	cfg := Config{StateDir: state, Steppers: 1, Quantum: 8, JournalEvery: 8, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d1.Submit(JobSpec{Tenant: "a", Searcher: "random", Seed: 5, Iterations: 100000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, err := d1.JobStatusByID(id); err == nil && st.Observed >= 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	if _, err := os.Stat(filepath.Join(state, "jobs", id, "snap.json")); err != nil {
		t.Fatalf("no snapshot journaled: %v", err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	if st := d2.Status(); st.Resumed != 1 {
		t.Fatalf("resumed %d jobs from snapshots, want 1", st.Resumed)
	}
	st, err := d2.JobStatusByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Observed < 8 {
		t.Fatalf("resumed at %d observations, want the journaled position (>= 8)", st.Observed)
	}
	if err := d2.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitAll(t, d2, id)
}

// TestRestartStaleSnapshotFromScratch: a journaled snapshot in an older
// format is unusable, so recovery restarts the job from its spec — and the
// from-scratch run still ends byte-identical to an uninterrupted one.
func TestRestartStaleSnapshotFromScratch(t *testing.T) {
	spec := JobSpec{Tenant: "a", Searcher: "random", Seed: 7, Iterations: 400, Workers: 3}
	reference := runToCompletion(t, Config{Steppers: 1, Quantum: 4}, []JobSpec{spec})

	state := t.TempDir()
	cfg := Config{StateDir: state, Steppers: 1, Quantum: 4, JournalEvery: 8, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, err := d1.JobStatusByID(id); err == nil && st.Observed >= 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	if st, _ := d1.JobStatusByID(id); st.State == "done" {
		t.Fatal("job finished before the kill; nothing was in flight")
	}
	// Rewrite the journaled snapshot as the version-1 format, which still
	// carried the scheduler mode.
	path := filepath.Join(state, "jobs", id, "snap.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no snapshot journaled: %v", err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap["version"], snap["mode"] = json.RawMessage("1"), json.RawMessage("1")
	if raw, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	if st := d2.Status(); st.Recovered != 1 || st.Resumed != 0 {
		t.Fatalf("recovered=%d resumed=%d, want 1/0 (from scratch)", st.Recovered, st.Resumed)
	}
	waitAll(t, d2, id)
	got, err := d2.ReportJSON(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference[id]) {
		t.Error("report after a stale-snapshot restart differs from the uninterrupted run")
	}
}

// TestRestartStaleDeepTuneSnapshotFromScratch: a version-2 DeepTune
// snapshot carries an observation history to replay where version 3
// carries the trained model, so recovery must reject it and rebuild the
// job from its spec — ending byte-identical to an uninterrupted run.
func TestRestartStaleDeepTuneSnapshotFromScratch(t *testing.T) {
	spec := JobSpec{Tenant: "a", Searcher: "deeptune", Seed: 3, Iterations: 24, SurrogateWindow: 8}
	reference := runToCompletion(t, Config{Steppers: 1, Quantum: 4}, []JobSpec{spec})

	state := t.TempDir()
	cfg := Config{StateDir: state, Steppers: 1, Quantum: 4, JournalEvery: 4, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, err := d1.JobStatusByID(id); err == nil && st.Observed >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	if st, _ := d1.JobStatusByID(id); st.State == "done" {
		t.Fatal("job finished before the kill; nothing was in flight")
	}
	// Rewrite the journaled snapshot as version 2, whose DeepTune state
	// was the proposal RNG plus an observation log.
	path := filepath.Join(state, "jobs", id, "snap.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no snapshot journaled: %v", err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap["version"] = json.RawMessage("2")
	snap["searcher_state"] = json.RawMessage(`{"rng":[1,2,3,4],"obs":[{"kv":{},"metric":1}]}`)
	if raw, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	if st := d2.Status(); st.Recovered != 1 || st.Resumed != 0 {
		t.Fatalf("recovered=%d resumed=%d, want 1/0 (from scratch)", st.Recovered, st.Resumed)
	}
	waitAll(t, d2, id)
	got, err := d2.ReportJSON(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference[id]) {
		t.Error("report after a stale DeepTune snapshot restart differs from the uninterrupted run")
	}
}

// TestRestartUnicornResumesFromSnapshot: a Unicorn job journals like any
// other — its snapshot carries the causal observation set and the batch
// adapter's pending set — so after a crash it resumes from the journal
// and still completes with the same bytes as an uninterrupted run.
func TestRestartUnicornResumesFromSnapshot(t *testing.T) {
	spec := JobSpec{Tenant: "u", Searcher: "unicorn", Seed: 3, Iterations: 24, Workers: 2}
	reference := runToCompletion(t, Config{Steppers: 1, Quantum: 4}, []JobSpec{spec})

	state := t.TempDir()
	cfg := Config{StateDir: state, Steppers: 1, Quantum: 4, JournalEvery: 8, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := d1.JobStatusByID(id); st.Observed >= 12 {
			if !st.Journalable {
				t.Fatal("unicorn job reported not journalable")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	if st, _ := d1.JobStatusByID(id); st.State == "done" {
		t.Fatal("job finished before the kill; nothing was in flight")
	}
	if _, err := os.Stat(filepath.Join(state, "jobs", id, "snap.json")); err != nil {
		t.Fatalf("no snapshot journaled: %v", err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	if st := d2.Status(); st.Recovered != 1 || st.Resumed != 1 {
		t.Fatalf("recovered=%d resumed=%d, want 1/1 (from the snapshot)", st.Recovered, st.Resumed)
	}
	waitAll(t, d2, id)
	got, err := d2.ReportJSON(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference[id]) {
		t.Error("unicorn report after resuming from its snapshot differs from the uninterrupted run")
	}
}

// TestShutdownJournalsEverything: a graceful shutdown snapshots every
// active job even between JournalEvery boundaries, so the next daemon
// resumes at the exact stop position.
func TestShutdownJournalsEverything(t *testing.T) {
	state := t.TempDir()
	// JournalEvery is enormous: only the shutdown path can write snapshots.
	cfg := Config{StateDir: state, Steppers: 1, Quantum: 8, JournalEvery: 1 << 30, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d1.Submit(JobSpec{Tenant: "a", Searcher: "bayesian", Seed: 2, Iterations: 100000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := d1.JobStatusByID(id); st.Observed >= 24 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Shutdown()
	stopAt, err := d1.JobStatusByID(id)
	if err != nil {
		t.Fatal(err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	st, err := d2.JobStatusByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Observed != stopAt.Observed {
		t.Fatalf("resumed at %d observations, want the shutdown position %d", st.Observed, stopAt.Observed)
	}
	if err := d2.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitAll(t, d2, id)
}

// TestRecoverTerminalJobs: a restarted daemon re-registers finished and
// canceled jobs from their journals — reports stay fetchable with the
// exact prior bytes, terminal states survive, and tenant accounting is
// seeded from the journal.
func TestRecoverTerminalJobs(t *testing.T) {
	state := t.TempDir()
	cfg := Config{StateDir: state, Steppers: 1, Quantum: 4, JournalEvery: 8}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doneID, err := d1.Submit(JobSpec{Tenant: "a", Searcher: "random", Seed: 1, Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, d1, doneID)
	ref, err := d1.ReportJSON(doneID)
	if err != nil {
		t.Fatal(err)
	}
	cancelID, err := d1.Submit(JobSpec{Tenant: "a", Searcher: "random", Seed: 2, Iterations: 100000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := d1.JobStatusByID(cancelID); st.Observed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d1.Cancel(cancelID); err != nil {
		t.Fatal(err)
	}
	waitAll(t, d1, cancelID)
	canceledAt, err := d1.JobStatusByID(cancelID)
	if err != nil {
		t.Fatal(err)
	}
	d1.Kill()

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Kill()
	st := d2.Status()
	if st.Recovered != 2 || st.Resumed != 0 {
		t.Fatalf("recovered=%d resumed=%d, want 2/0 (both terminal)", st.Recovered, st.Resumed)
	}
	got, err := d2.ReportJSON(doneID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Error("recovered done job's report differs from the original")
	}
	ds, err := d2.JobStatusByID(doneID)
	if err != nil {
		t.Fatal(err)
	}
	if ds.State != "done" || ds.Observed != 30 || ds.BestConfig == "" {
		t.Fatalf("recovered done status %+v", ds)
	}
	cs, err := d2.JobStatusByID(cancelID)
	if err != nil {
		t.Fatal(err)
	}
	if cs.State != "canceled" || cs.Observed != canceledAt.Observed {
		t.Fatalf("recovered canceled status %+v, want canceled at %d", cs, canceledAt.Observed)
	}
	// Terminal jobs hold no active slots or committed budget, but their
	// observations count as served tenant service.
	tenants := d2.Status().Tenants
	if len(tenants) != 1 || tenants[0].Active != 0 || tenants[0].Committed != 0 ||
		tenants[0].Service != 30+canceledAt.Observed {
		t.Fatalf("tenant accounting after recovery: %+v", tenants)
	}
	// A recovered terminal job's event stream is closed (nothing replays —
	// the event log is not journaled) but attaching must not hang.
	backlog, live, cancel, err := d2.Attach(doneID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if len(backlog) != 0 {
		t.Fatalf("recovered job replayed %d events, want none", len(backlog))
	}
	if _, ok := <-live; ok {
		t.Fatal("recovered terminal job's live channel should be closed")
	}
}
