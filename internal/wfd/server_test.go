package wfd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startServer serves a daemon over a unix socket in a temp dir and
// returns a client for it.
func startServer(t *testing.T, cfg Config) (*Daemon, *Client) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "wfd.sock")
	ln, err := Listen(sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(d)}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		d.Kill()
	})
	return d, NewClient(sock)
}

// TestServerEndToEnd drives the whole API surface over a unix socket:
// submit, list, status, event streaming with replay, report, cancel, and
// the error mappings.
func TestServerEndToEnd(t *testing.T) {
	_, c := startServer(t, Config{Steppers: 1, Quantum: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	id, err := c.Submit(ctx, JobSpec{Tenant: "alice", Searcher: "random", Seed: 1, Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if id != "j000001" {
		t.Fatalf("first job id %q", id)
	}

	// Bad specs map to ErrBadSpec over the wire.
	if _, err := c.Submit(ctx, JobSpec{Searcher: "random"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unbounded spec: got %v, want ErrBadSpec", err)
	}
	if _, err := c.Job(ctx, "j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: got %v, want ErrNotFound", err)
	}

	// Report with wait blocks until completion and returns canonical
	// bytes matching a direct fetch.
	rep, err := c.Report(ctx, id, true)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Report(ctx, id, false)
	if err != nil {
		t.Fatal(err)
	}
	if string(rep) != string(again) {
		t.Fatal("waited and direct report bytes differ")
	}

	// Stream the finished job's events: full replay, contiguous, done at
	// the end; then resume from the middle.
	var seqs []int
	last := ""
	next, err := c.Events(ctx, id, 0, func(ev WireEvent) bool {
		seqs = append(seqs, ev.Seq)
		last = ev.Type
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 || last != "done" || next != seqs[len(seqs)-1]+1 {
		t.Fatalf("stream: %d events, last %q, next %d", len(seqs), last, next)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("event %d has seq %d", i, s)
		}
	}
	mid := len(seqs) / 2
	count := 0
	if _, err = c.Events(ctx, id, mid, func(ev WireEvent) bool {
		if count == 0 && ev.Seq != mid {
			t.Fatalf("resume from %d started at %d", mid, ev.Seq)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(seqs)-mid {
		t.Fatalf("resumed stream had %d events, want %d", count, len(seqs)-mid)
	}

	st, err := c.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Observed != 30 || st.Tenant != "alice" {
		t.Fatalf("status %+v", st)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("jobs %+v", jobs)
	}

	// Cancel a long-running job over the wire, then confirm its report is
	// a 409/ErrNotDone.
	long, err := c.Submit(ctx, JobSpec{Tenant: "bob", Searcher: "random", Seed: 2, Iterations: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, long); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Job(ctx, long)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Report(ctx, long, false); !errors.Is(err, ErrNotDone) {
		t.Fatalf("canceled report: got %v, want ErrNotDone", err)
	}

	ds, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Done != 1 || ds.Canceled != 1 || len(ds.Tenants) != 2 {
		t.Fatalf("daemon status %+v", ds)
	}
}

// TestServerLiveAttach attaches while the job is still running and
// follows the stream to its end.
func TestServerLiveAttach(t *testing.T) {
	_, c := startServer(t, Config{Steppers: 1, Quantum: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id, err := c.Submit(ctx, JobSpec{Tenant: "t", Searcher: "random", Seed: 4, Iterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	evals, dones := 0, 0
	if _, err := c.Events(ctx, id, 0, func(ev WireEvent) bool {
		switch ev.Type {
		case "eval":
			evals++
		case "done":
			dones++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if evals != 200 || dones != 1 {
		t.Fatalf("streamed %d evals and %d dones, want 200/1", evals, dones)
	}
}

// TestServerTCP runs the same API over a TCP listener: Listen and
// NewClient both switch transports on the host:port form.
func TestServerTCP(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(d)}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		d.Kill()
	})
	c := NewClient(ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id, err := c.Submit(ctx, JobSpec{Tenant: "tcp", Searcher: "random", Seed: 1, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(ctx, id, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, "j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown over TCP: got %v, want ErrNotFound", err)
	}
}

// TestSubmitBodyBounded: a submit body past maxSubmitBytes is cut off
// mid-decode and answered 400 (the status the client maps to ErrBadSpec)
// with ErrBadSpec's message, and no job is admitted.
func TestSubmitBodyBounded(t *testing.T) {
	d, err := New(Config{Steppers: 1, Quantum: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Kill)
	body := `{"searcher":"random","iterations":4,"name":"` + strings.Repeat("x", maxSubmitBytes) + `"}`
	rec := httptest.NewRecorder()
	NewHandler(d).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized submit: status %d, want %d", rec.Code, http.StatusBadRequest)
	}
	var msg map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg["error"], ErrBadSpec.Error()) {
		t.Fatalf("oversized submit: error %q does not carry %q", msg["error"], ErrBadSpec)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized submit admitted %d jobs", len(jobs))
	}
}
