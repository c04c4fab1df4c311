// Journaling and recovery: every job's durable record lives under
// StateDir/jobs/<id>/ as small JSON files written atomically (temp file +
// rename, so a crash never leaves a half-written record):
//
//	spec.json    the JobSpec, written at admission — enough to rebuild
//	             the session from scratch deterministically
//	snap.json    the latest session snapshot, rewritten every
//	             JournalEvery observations and on graceful shutdown
//	report.json  the canonical final report, written once at completion
//	status.json  a terminal marker for canceled/failed jobs
//
// Recovery scans the directory at startup: jobs with a report or status
// file are re-registered terminal; everything else is in-flight and is
// resumed from its snapshot (or rebuilt from its spec when no usable
// snapshot exists — same final bytes, wasted work) and queued.
package wfd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// writeFileAtomic writes data so that path either keeps its old content or
// holds all of data — never a torn prefix.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// jobDir is a job's journal directory.
func (d *Daemon) jobDir(id string) string {
	return filepath.Join(d.cfg.StateDir, "jobs", id)
}

// writeSpec records a job's spec at admission.
func (d *Daemon) writeSpec(j *job) error {
	dir := d.jobDir(j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(j.spec, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, "spec.json"), data)
}

// writeReport records a job's canonical final report and retires its
// snapshot.
func (d *Daemon) writeReport(j *job, report []byte) error {
	dir := d.jobDir(j.id)
	if err := writeFileAtomic(filepath.Join(dir, "report.json"), report); err != nil {
		return err
	}
	os.Remove(filepath.Join(dir, "snap.json"))
	return nil
}

// terminalStatus is the durable record of a canceled or failed job.
type terminalStatus struct {
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Observed int    `json:"observed"`
}

// writeStatus records a non-done terminal state and retires the snapshot.
func (d *Daemon) writeStatus(j *job, state, reason string, observed int) error {
	dir := d.jobDir(j.id)
	data, err := json.Marshal(terminalStatus{State: state, Error: reason, Observed: observed})
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, "status.json"), data); err != nil {
		return err
	}
	os.Remove(filepath.Join(dir, "snap.json"))
	return nil
}

// journalJob snapshots an in-flight job. Only the stepper holding the job
// in stateRunning (or shutdown, after the pool drained) may call it — a
// session must not be snapshotted while stepping. A snapshot failure
// demotes the job to non-journalable (it will restart from scratch after a
// crash) rather than killing it.
func (d *Daemon) journalJob(j *job) {
	d.mu.Lock()
	journalable := j.journalable
	d.mu.Unlock()
	if !journalable || d.cfg.StateDir == "" || j.sess == nil {
		return
	}
	snap, err := j.sess.Snapshot()
	if err != nil {
		d.mu.Lock()
		j.journalable = false
		d.mu.Unlock()
		d.cfg.Logf("wfd: %s: snapshot failed, job will not survive a crash: %v", j.id, err)
		return
	}
	if err := writeFileAtomic(filepath.Join(d.jobDir(j.id), "snap.json"), snap); err != nil {
		d.cfg.Logf("wfd: %s: journal snapshot: %v", j.id, err)
	}
}

// recoveredSummary pulls the summary fields a terminal job's status needs
// out of its journaled report.
type recoveredSummary struct {
	History []struct {
		Crashed bool `json:"crashed"`
	} `json:"history"`
	Best *struct {
		Metric float64 `json:"metric"`
		Config string  `json:"config"`
	} `json:"best"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// recover rebuilds the daemon's job table from the state directory. Called
// from New before the stepper pool starts, so no locking is needed.
func (d *Daemon) recover() error {
	jobsDir := filepath.Join(d.cfg.StateDir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return fmt.Errorf("wfd: state dir: %w", err)
	}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("wfd: state dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "j") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	for _, id := range names {
		dir := filepath.Join(jobsDir, id)
		seq, err := strconv.Atoi(strings.TrimLeft(id, "j0"))
		if err != nil && id != "j000000" {
			d.cfg.Logf("wfd: recover: skipping %s: unparseable id", id)
			continue
		}
		specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			d.cfg.Logf("wfd: recover: skipping %s: %v", id, err)
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(specData, &spec); err != nil {
			d.cfg.Logf("wfd: recover: skipping %s: bad spec: %v", id, err)
			continue
		}
		spec = spec.withDefaults()
		j := d.newJob(id, seq, spec, d.tenantLocked(spec.Tenant))

		switch {
		case d.recoverDone(dir, j):
			// terminal: report or status file consumed.
		default:
			d.recoverInFlight(dir, j)
		}

		d.insertLocked(j)
		d.recovered++
		if seq >= d.nextSeq {
			d.nextSeq = seq + 1
		}
	}
	if d.recovered > 0 {
		d.cfg.Logf("wfd: recovered %d jobs from %s (%d resumed from snapshots)",
			d.recovered, d.cfg.StateDir, d.resumed)
	}
	return nil
}

// recoverDone re-registers a job whose journal shows a terminal state,
// reporting whether it did.
func (d *Daemon) recoverDone(dir string, j *job) bool {
	if report, err := os.ReadFile(filepath.Join(dir, "report.json")); err == nil {
		j.state = stateDone
		j.reportJSON = report
		var sum recoveredSummary
		if json.Unmarshal(report, &sum) == nil {
			j.observed = len(sum.History)
			for _, h := range sum.History {
				if h.Crashed {
					j.crashes++
				}
			}
			j.elapsedSec = sum.ElapsedSec
			if sum.Best != nil {
				j.bestMetric = sum.Best.Metric
				j.bestConfig = sum.Best.Config
			}
		}
	} else if data, err := os.ReadFile(filepath.Join(dir, "status.json")); err == nil {
		var st terminalStatus
		if json.Unmarshal(data, &st) != nil {
			return false
		}
		j.err = st.Error
		j.observed = st.Observed
		if st.State == "failed" {
			j.state = stateFailed
		} else {
			j.state = stateCanceled
		}
	} else {
		return false
	}
	j.tenant.servedTerminal += j.observed
	j.tenant.service += j.observed
	j.hub.close()
	close(j.done)
	return true
}

// recoverInFlight reconstructs an in-flight job's session — from its
// latest snapshot when one is usable, from scratch otherwise — and queues
// it.
func (d *Daemon) recoverInFlight(dir string, j *job) {
	if snap, err := os.ReadFile(filepath.Join(dir, "snap.json")); err == nil {
		sess, err := j.spec.resumeSession(snap, d.sessionOptions(j)...)
		if err == nil {
			j.sess = sess
			d.resumed++
			d.cfg.Logf("wfd: %s resumed from snapshot at %d observations", j.id, sess.Observed())
		} else {
			d.cfg.Logf("wfd: %s: snapshot unusable (%v), restarting from scratch", j.id, err)
		}
	}
	if j.sess == nil {
		sess, _, err := j.spec.NewSession(d.sessionOptions(j)...)
		if err != nil {
			j.state = stateFailed
			j.err = fmt.Sprintf("recovery: %v", err)
			j.tenant.service += j.observed
			j.tenant.servedTerminal += j.observed
			j.hub.close()
			close(j.done)
			d.cfg.Logf("wfd: %s: recovery failed: %v", j.id, err)
			return
		}
		j.sess = sess
		d.cfg.Logf("wfd: %s restarting from scratch", j.id)
	}
	j.usage = j.sess.Usage()
	j.observed = j.sess.Observed()
	j.state = stateQueued
	j.tenant.active++
	j.tenant.committed += j.spec.Iterations
	j.tenant.service += j.observed
}
