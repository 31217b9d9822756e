// The HTTP/JSON front end. Routes:
//
//	GET    /healthz        liveness + queue/worker snapshot
//	GET    /metrics        Prometheus text exposition
//	GET    /blueprints     registered apps (analyzed descriptions)
//	POST   /jobs           submit a sweep or check job (202, or 429 under backpressure;
//	                       413 for a body over 4 KiB)
//	GET    /jobs           list all jobs
//	GET    /jobs/{id}      one job's status, progress and summary
//	DELETE /jobs/{id}      cancel a job
//
// With WithPprof, the Go profiling endpoints are additionally mounted
// under GET /debug/pprof/.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"easeio/internal/fleet"
)

// Server binds the manager, registry and metrics to an http.Handler.
type Server struct {
	mgr     *Manager
	reg     *Registry
	metrics *Metrics
	fleetM  *fleet.Metrics
	log     *slog.Logger
	pprof   bool
}

// ServerOption configures a Server at construction time.
type ServerOption func(*Server)

// WithAccessLog installs a structured access log: one record per request
// with method, path, status and duration.
func WithAccessLog(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithFleetMetrics appends the fleet coordinator's metric series
// (per-worker leases, retries, WAL fsync latency, merge time) to the
// /metrics exposition of a server whose manager runs in fleet mode.
func WithFleetMetrics(fm *fleet.Metrics) ServerOption {
	return func(s *Server) { s.fleetM = fm }
}

// WithPprof mounts the Go runtime profiling handlers under
// /debug/pprof/. Off by default: the endpoints expose host-level detail
// (command line, heap contents) that an open sweep service should not
// serve unless the operator asked for it.
func WithPprof() ServerOption {
	return func(s *Server) { s.pprof = true }
}

// NewServer returns a server over the given components.
func NewServer(mgr *Manager, reg *Registry, metrics *Metrics, opts ...ServerOption) *Server {
	s := &Server{mgr: mgr, reg: reg, metrics: metrics}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /blueprints", s.handleBlueprints)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprofSeconds(pprof.Profile))
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprofSeconds(pprof.Trace))
	}
	if s.log == nil {
		return mux
	}
	return accessLog(s.log, mux)
}

// maxPprofSeconds caps the duration-taking profile captures: a CPU
// profile or execution trace blocks the handler for its full window.
const maxPprofSeconds = 60

// pprofSeconds guards the duration-taking pprof handlers. The stdlib
// handlers silently substitute a default (30 s!) for a malformed or
// non-positive seconds parameter; here that is a 400 instead, so a typo
// never turns into a surprise half-minute capture.
func pprofSeconds(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if raw := r.URL.Query().Get("seconds"); raw != "" {
			sec, err := strconv.ParseFloat(raw, 64)
			if err != nil || sec <= 0 || sec > maxPprofSeconds {
				writeError(w, http.StatusBadRequest, fmt.Errorf(
					"service: seconds must be a number in (0, %d], got %q", maxPprofSeconds, raw))
				return
			}
		}
		next(w, r)
	}
}

// statusRecorder captures the response code for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// accessLog wraps next with one structured record per request.
func accessLog(l *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		l.Info("http request", "method", r.Method, "path", r.URL.Path,
			"status", rec.status, "dur_ms", time.Since(start).Milliseconds())
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"queue_depth":  s.mgr.QueueDepth(),
		"running_jobs": s.mgr.RunningJobs(),
		"blueprints":   s.reg.Names(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, s.mgr.QueueDepth(), s.mgr.RunningJobs())
	s.fleetM.Expose(w) // nil-safe no-op without a fleet
}

func (s *Server) handleBlueprints(w http.ResponseWriter, _ *http.Request) {
	infos := make([]Info, 0)
	for _, name := range s.reg.Names() {
		bp, ok := s.reg.Lookup(name)
		if !ok {
			continue
		}
		info, err := bp.Describe()
		if err != nil {
			info = Info{Name: name, App: "error: " + err.Error()}
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// maxSubmitBody bounds a POST /jobs body. A JobSpec encodes in under
// 1 KiB; the bound keeps a client from making the server buffer more.
const maxSubmitBody = 4 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(bytes.TrimSpace(body[dec.InputOffset():])) != 0 {
		writeError(w, http.StatusBadRequest, errors.New("service: request body holds data after the job spec"))
		return
	}
	j, err := s.mgr.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// jobFromPath resolves the {id} path value, writing the error response
// itself when the job cannot be found.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	j, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: no such job"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.mgr.Cancel(j.ID) // routes through the manager so queue-stage cancels are counted
	writeJSON(w, http.StatusOK, j.Status())
}
