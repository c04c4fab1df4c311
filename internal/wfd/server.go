// The daemon's HTTP+JSON API, normally served over a unix-domain socket:
//
//	POST   /v1/jobs              submit a JobSpec  → {"id": "j000001"}
//	GET    /v1/jobs              list job statuses
//	GET    /v1/jobs/{id}         one job's status
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/events  NDJSON event stream (?from=N replays)
//	GET    /v1/jobs/{id}/report  canonical final report (?wait=1 blocks)
//	GET    /v1/status            daemon-wide status
package wfd

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"strconv"
)

// NewHandler exposes the daemon over HTTP.
func NewHandler(d *Daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", d.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", d.handleReport)
	mux.HandleFunc("GET /v1/status", d.handleStatus)
	return mux
}

// Listen opens the daemon's listener: "host:port" serves TCP, anything
// else is a unix-socket path (a stale socket file is replaced).
func Listen(addr string) (net.Listener, error) {
	if _, _, err := net.SplitHostPort(addr); err == nil {
		return net.Listen("tcp", addr)
	}
	if _, err := os.Stat(addr); err == nil {
		os.Remove(addr)
	}
	return net.Listen("unix", addr)
}

// httpError maps daemon sentinel errors onto status codes and writes a
// JSON error body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQuota):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDone):
		code = http.StatusConflict
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// maxSubmitBytes bounds a submit body. A JobSpec is well under a
// kilobyte even with favor: and fixed: maps, so the bound only stops a
// client that streams a body without end.
const maxSubmitBytes = 1 << 20

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		httpError(w, errors.Join(ErrBadSpec, err))
		return
	}
	id, err := d.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (d *Daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Jobs())
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := d.JobStatusByID(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := d.Cancel(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Status())
}

// handleReport serves the canonical final report bytes verbatim; ?wait=1
// blocks until the job terminates first.
func (d *Daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("wait") != "" {
		if err := d.WaitJob(r.Context(), id); err != nil {
			httpError(w, err)
			return
		}
	}
	report, err := d.ReportJSON(id)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(report)
}

// handleEvents streams a job's events as NDJSON: the retained backlog from
// ?from=N (default 0), then live events until the job terminates, the
// client disconnects, or it lags beyond the subscriber buffer (it then
// re-attaches from the last sequence it saw).
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if s := r.URL.Query().Get("from"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			httpError(w, errors.Join(ErrBadSpec, errors.New("bad from parameter")))
			return
		}
		from = n
	}
	backlog, live, cancel, err := d.Attach(id, from)
	if err != nil {
		httpError(w, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, ev := range backlog {
		if enc.Encode(ev) != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if enc.Encode(ev) != nil {
				return
			}
			// Flush per event: attached clients watch live.
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
