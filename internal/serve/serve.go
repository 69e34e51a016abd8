// Package serve exposes the repository's cost models (Maly eq (1)–(7)) as
// a long-running HTTP/JSON service — the nanocostd daemon. The package is
// the production front-end the ROADMAP asks for: strict request validation
// that maps model-domain errors (the eq (6) pole at s_d ≤ s_d0, invalid
// yields, NaN-poisoned parameters) to 400 responses instead of 500s or
// NaN-bearing JSON, per-request timeouts, bounded concurrency with 429
// backpressure, request body size limits, graceful connection-draining
// shutdown, and an observability surface (/healthz, /metrics with request
// counters, a latency histogram, an in-flight gauge and the memo cache hit
// rates, plus structured request logging via log/slog).
//
// Routes:
//
//	POST /v1/cost          eq (1)–(5): full transistor-cost breakdown
//	POST /v1/designcost    eq (6): design cost C_DE and its marginal
//	POST /v1/generalized   eq (7): utilization + pluggable yield model
//	POST /v1/sweep         parameter sweeps over s_d, N_w or Y
//	POST /v1/batch         heterogeneous batch of cost/designcost/generalized
//	GET  /v1/figures/{id}  paper-figure data series (1–4), memoized
//	POST /v1/jobs          submit a sharded Monte Carlo simulation job
//	GET  /v1/jobs/{id}     job progress snapshot (NDJSON streams it live)
//	GET  /v1/jobs/{id}/result  final result envelope (byte-stable per spec)
//	DELETE /v1/jobs/{id}   cancel a running job
//	GET  /healthz          liveness probe (200 in every lifecycle state)
//	GET  /readyz           readiness probe (200 only while accepting traffic)
//	GET  /metrics          Prometheus text exposition
//	GET  /debug/trace/{id} span tree of a recently traced request
//
// Every request is wrapped by the observe middleware: it assigns (or
// echoes) an X-Request-Id, opens a root trace span honoring an incoming
// X-Trace-Id (returned on the response; the completed span tree is
// retrievable at /debug/trace/{id} while it remains in the bounded ring),
// records the per-route counters and latency histogram, and emits exactly
// one structured access-log line per request — streamed responses
// included.
//
// /v1/sweep and /v1/figures/{id} answer with NDJSON streaming (one JSON
// value per line, flushed chunk by chunk) when the request carries
// "Accept: application/x-ndjson". Figure responses are served with strong
// ETags derived from the memoized content, so a matching If-None-Match
// costs a hash compare (304) instead of a regeneration.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// traceRingCapacity bounds how many completed traces the server retains
// for /debug/trace lookups. FIFO: the oldest trace is evicted first.
const traceRingCapacity = 128

// lifecycle is the server's drain-aware state machine. Transitions are
// strictly monotonic — starting → ready → draining → stopped — so a
// late readiness flip can never resurrect a draining server in a load
// balancer's eyes. /healthz is liveness (the process is up and can
// answer) and stays 200 through every state; /readyz is readiness (the
// process wants new traffic) and answers 200 only in ready.
type lifecycle int32

const (
	lifecycleStarting lifecycle = iota
	lifecycleReady
	lifecycleDraining
	lifecycleStopped
)

func (l lifecycle) String() string {
	switch l {
	case lifecycleStarting:
		return "starting"
	case lifecycleReady:
		return "ready"
	case lifecycleDraining:
		return "draining"
	default:
		return "stopped"
	}
}

// Config collects the operational knobs of the service. The zero value is
// usable: every field falls back to the documented default.
type Config struct {
	// Addr is the listen address for ListenAndServe ("" means ":8087").
	Addr string
	// RequestTimeout bounds each model-evaluating request's context
	// (default 15s). /healthz and /metrics are exempt: observability must
	// answer even when the model paths are saturated.
	RequestTimeout time.Duration
	// ShutdownTimeout bounds connection draining during graceful shutdown
	// (default 10s).
	ShutdownTimeout time.Duration
	// MaxInFlight caps concurrently served model requests; excess requests
	// receive 429 with Retry-After (default 4 × GOMAXPROCS).
	MaxInFlight int
	// MaxBodyBytes caps request body size (default 1 MiB); larger bodies
	// receive 413.
	MaxBodyBytes int64
	// Logger receives structured request and lifecycle logs (default
	// slog.Default()).
	Logger *slog.Logger
	// JobDir is where sharded simulation jobs checkpoint ("" disables
	// checkpointing; job submissions with "checkpoint": true are then
	// rejected with 400).
	JobDir string
	// MaxJobs caps concurrently running simulation jobs (default 2);
	// excess submissions receive 429 jobs_saturated.
	MaxJobs int
	// Peers lists other nanocostd replicas (host:port) whose distributed
	// jobs this daemon's worker loop pulls shards from. Setting any peer
	// also enables DistributeJobs, so a mesh of replicas pointed at each
	// other shares every job.
	Peers []string
	// DistributeJobs runs this daemon's jobs through the shard-lease
	// coordinator, exposing them at /v1/jobs/open for peer workers.
	// Implied by a non-empty Peers; set it alone for a coordinator whose
	// workers live elsewhere.
	DistributeJobs bool
	// LeaseTTL is the distributed shard-lease lifetime (default 10s): a
	// worker renews at TTL/3, and a dead worker's shards are re-granted
	// one TTL after its last renewal.
	LeaseTTL time.Duration
	// WorkerID names this replica in lease tables (default "host:pid").
	WorkerID string
	// JobWorkers sizes the local evaluation loop of distributed jobs:
	// 0 = parallel.DefaultWorkers, -1 = no local evaluation (a pure
	// coordinator that only merges remote uploads). Ignored for
	// non-distributed jobs, which always use the worker pool default.
	JobWorkers int
}

// withDefaults resolves the zero-value fallbacks.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8087"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if len(c.Peers) > 0 {
		c.DistributeJobs = true
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.WorkerID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "nanocostd"
		}
		c.WorkerID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	return c
}

// Server is the nanocostd HTTP service. Construct with NewServer; drive
// with ListenAndServe/Serve (blocking, context-cancelled) or mount
// Handler on a test server.
type Server struct {
	cfg        Config
	log        *slog.Logger
	mux        *http.ServeMux
	handler    http.Handler // mux wrapped in the observe middleware
	metrics    *metrics
	tracer     *obs.Tracer
	jobs       *jobManager
	worker     *worker
	sem        chan struct{}
	retryAfter string       // 429 Retry-After, derived from RequestTimeout
	addr       atomic.Value // string: bound listen address, set once serving
	state      atomic.Int32 // lifecycle; moves forward only (advanceState)
}

// NewServer builds a Server from cfg (zero fields take defaults).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		metrics: newMetrics(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		// A saturated server drains at the pace of its slowest admitted
		// requests, which the request timeout bounds — so that, rounded up
		// to a whole second, is the honest back-off hint. A hard-coded "1"
		// would invite clients to hammer a server whose queue cannot have
		// moved yet.
		retryAfter: strconv.Itoa(max(1, int(math.Ceil(cfg.RequestTimeout.Seconds())))),
	}
	s.tracer = obs.NewTracer(traceRingCapacity, s.metrics.spanSeconds)
	s.tracer.RegisterMetrics(s.metrics.reg)
	s.jobs = newJobManager(cfg, s.metrics, s.log)
	s.jobs.tracer = s.tracer
	if len(cfg.Peers) > 0 {
		s.worker = newWorker(cfg, s.metrics, s.log)
		s.worker.tracer = s.tracer
		s.worker.start()
	}
	s.routes()
	s.handler = s.observe(s.mux)
	return s
}

// Handler returns the service's root handler, for httptest mounting.
func (s *Server) Handler() http.Handler { return s.handler }

// advanceState moves the lifecycle monotonically forward and reports
// whether the transition happened. Out-of-order calls lose: a server
// that began draining can never flip back to ready.
func (s *Server) advanceState(to lifecycle) bool {
	for {
		cur := lifecycle(s.state.Load())
		if to <= cur {
			return false
		}
		if s.state.CompareAndSwap(int32(cur), int32(to)) {
			return true
		}
	}
}

// Lifecycle returns the server's current drain-aware state.
func (s *Server) Lifecycle() string { return lifecycle(s.state.Load()).String() }

// MarkReady flips a starting server to ready. Serve does this itself the
// moment its listener is up; the method exists for Handler-mounted
// servers (tests, embedding) that never call Serve but still want
// /readyz to answer 200.
func (s *Server) MarkReady() { s.advanceState(lifecycleReady) }

// Addr returns the bound listen address once Serve has started listening,
// or "" before that. It exists so tests and the smoke script can reach a
// server started on an ephemeral port.
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// ListenAndServe listens on cfg.Addr and serves until ctx is cancelled,
// then drains in-flight connections for up to cfg.ShutdownTimeout before
// returning. It returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then performs the graceful
// drain. The listener is closed when Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.addr.Store(ln.Addr().String())
	s.advanceState(lifecycleReady)
	s.log.Info("nanocostd listening",
		"addr", ln.Addr().String(),
		"request_timeout", s.cfg.RequestTimeout.String(),
		"max_in_flight", s.cfg.MaxInFlight)
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		// Serve only returns on listener failure here; Shutdown was not
		// requested yet.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	// Flip readiness first: from here on /readyz answers 503, so a load
	// balancer polling it stops routing new work while Shutdown drains the
	// connections that are already in flight.
	s.advanceState(lifecycleDraining)
	s.log.Info("nanocostd draining", "timeout", s.cfg.ShutdownTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	<-done // srv.Serve returns http.ErrServerClosed after Shutdown
	// Stop background simulation jobs and the peer worker loop only
	// after the HTTP side has drained, so in-flight status requests see
	// consistent state. A checkpointing job cancelled here resumes from
	// its shard log on the next submit.
	s.stopBackground()
	s.advanceState(lifecycleStopped)
	if err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	s.log.Info("nanocostd stopped")
	return nil
}

// Close cancels any background simulation jobs and the peer worker
// loop and waits briefly for them to settle. Serve does this itself
// after draining; Close exists for Handler-mounted servers (tests) that
// never call Serve.
func (s *Server) Close() { s.stopBackground() }

// stopBackground stops the peer worker loop, then drains the job
// manager. Idempotent.
func (s *Server) stopBackground() {
	if s.worker != nil {
		s.worker.stop()
	}
	s.jobs.shutdown(s.cfg.ShutdownTimeout)
}

// routes wires the endpoint table. Model-evaluating routes go through
// handle (semaphore + timeout + metrics + logging); the observability
// routes bypass the semaphore and timeout.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/cost", s.handle("/v1/cost", s.handleCost))
	s.mux.HandleFunc("POST /v1/designcost", s.handle("/v1/designcost", s.handleDesignCost))
	s.mux.HandleFunc("POST /v1/generalized", s.handle("/v1/generalized", s.handleGeneralized))
	s.mux.HandleFunc("POST /v1/sweep", s.handle("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("POST /v1/batch", s.handle("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/figures/{id}", s.handle("/v1/figures/{id}", s.handleFigure))
	s.mux.HandleFunc("POST /v1/jobs", s.handle("/v1/jobs", s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs/open", s.handle("/v1/jobs/open", s.handleJobsOpen))
	s.mux.HandleFunc("POST /v1/jobs/{id}/lease", s.handle("/v1/jobs/{id}/lease", s.handleJobLease))
	s.mux.HandleFunc("POST /v1/jobs/{id}/partials", s.handleCap("/v1/jobs/{id}/partials", maxPartialsBodyBytes, s.handleJobPartials))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handle("/v1/jobs/{id}", s.handleJobStatus))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handle("/v1/jobs/{id}/result", s.handleJobResult))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handle("/v1/jobs/{id}/events", s.handleJobEvents))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handle("/v1/jobs/{id}", s.handleJobCancel))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &apiError{status: http.StatusNotFound, code: "not_found",
			err: fmt.Errorf("no route %s %s", r.Method, r.URL.Path)})
	})
}

// apiError couples an error with the HTTP status and machine-readable code
// the response body carries.
type apiError struct {
	status int
	code   string
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// badRequest wraps a model-validation error as a 400. Errors tagged
// core.ErrOutOfDomain keep their sharper "out_of_domain" code so sweep
// drivers can distinguish a mathematically impossible point from a
// malformed request.
func badRequest(err error) *apiError {
	code := "invalid_request"
	if errors.Is(err, core.ErrOutOfDomain) {
		code = "out_of_domain"
	}
	return &apiError{status: http.StatusBadRequest, code: code, err: err}
}

// asAPIError maps any handler error to the apiError that renders it.
func asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return &apiError{status: http.StatusRequestEntityTooLarge, code: "body_too_large", err: err}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: "timeout", err: err}
	case errors.Is(err, core.ErrOutOfDomain):
		return badRequest(err)
	default:
		return &apiError{status: http.StatusInternalServerError, code: "internal", err: err}
	}
}

// errorBody is the machine-readable error envelope of every non-2xx
// response. RequestID repeats the response's X-Request-Id header so a
// client that only kept the body can still report the failure.
type errorBody struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, ae *apiError) {
	var body errorBody
	body.Error.Code = ae.code
	body.Error.Message = ae.err.Error()
	body.Error.RequestID = w.Header().Get("X-Request-Id")
	writeJSON(w, ae.status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the response types used here (all fields are
		// finite-validated before encoding), but never reply with half a
		// body: fall back to a minimal envelope.
		status = http.StatusInternalServerError
		buf = []byte(`{"error":{"code":"internal","message":"response encoding failed"}}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}

// statusRecorder captures the response status and byte count for metrics
// and logs, and remembers whether the header went out — once it has, error
// mapping must not append an error envelope to a half-written stream.
// The observe middleware creates one per request; handle() annotates it
// with the route pattern and any handler error for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	bytes       int64
	route       string // registered route pattern, set by handle()
	logErr      error  // handler error, carried to the access-log line
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.wroteHeader {
		r.status = status
		r.wroteHeader = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wroteHeader {
		// net/http sends an implicit 200 on first Write; record it so
		// streamed responses whose handler never calls WriteHeader report
		// 200 instead of 0 in logs and the per-route counter.
		r.status = http.StatusOK
		r.wroteHeader = true
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush passes through to the underlying http.Flusher so NDJSON streaming
// handlers can push each chunk onto the wire. Without this the recorder
// would mask the Flusher interface and every "streaming" response would be
// buffered until the handler returned.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// wroteResponse is the sentinel a handler returns when it already wrote
// the response itself (streaming, 304 and cached-bytes paths); the
// middleware then skips the default JSON encoding.
type wroteResponse struct{}

// handlerFunc is a model-evaluating endpoint: it returns a response value
// to encode as 200 (or wroteResponse if it wrote its own), or an error
// that asAPIError maps to a status.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (any, error)

// handle is the middleware stack of every model-evaluating route:
// concurrency semaphore (429 + Retry-After on saturation), in-flight
// gauge, request body cap, per-request timeout and error mapping. The
// surrounding observe middleware owns the recorder, metrics and the
// access log; handle annotates the recorder with the route pattern and
// any handler error.
func (s *Server) handle(route string, h handlerFunc) http.HandlerFunc {
	return s.handleCap(route, 0, h)
}

// handleCap is handle with a route-specific request body cap (<= 0
// falls back to cfg.MaxBodyBytes). Shard-partial uploads need it: one
// shard of a giga-trial job carries far more chunk tallies than any
// model request body.
func (s *Server) handleCap(route string, bodyCap int64, h handlerFunc) http.HandlerFunc {
	if bodyCap <= 0 {
		bodyCap = s.cfg.MaxBodyBytes
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rec, ok := w.(*statusRecorder)
		if !ok {
			// Direct invocation outside the middleware (not the served
			// path); keep working rather than assuming.
			rec = &statusRecorder{ResponseWriter: w}
		}
		rec.route = route

		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			rec.Header().Set("Retry-After", s.retryAfter)
			writeError(rec, &apiError{status: http.StatusTooManyRequests, code: "saturated",
				err: fmt.Errorf("server at its %d-request concurrency limit", s.cfg.MaxInFlight)})
			return
		}

		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(rec, r.Body, bodyCap)

		v, err := h(rec, r)
		if err == nil && ctx.Err() != nil && !rec.wroteHeader {
			// The handler finished but the deadline passed (or the client
			// left) before anything went out: report the truth rather than
			// a half-written success. A response that already streamed is
			// left as the bytes on the wire tell it.
			err = ctx.Err()
		}
		if err != nil {
			rec.logErr = err
			switch {
			case errors.Is(err, context.Canceled):
				// The client is gone; nothing useful can be written. Record
				// the nonstandard-but-conventional 499 for the logs.
				rec.status = 499
			case !rec.wroteHeader:
				writeError(rec, asAPIError(err))
			default:
				// Mid-stream failure after bytes were flushed: the response
				// cannot be rewritten, so the truncated stream plus the
				// access log's error attribute carry the story.
			}
			return
		}
		if _, wrote := v.(wroteResponse); !wrote {
			writeJSON(rec, http.StatusOK, v)
		}
	}
}

// observe is the outermost middleware, wrapping every route including the
// observability endpoints: it owns the status recorder, assigns or echoes
// X-Request-Id, opens the root trace span (honoring a sanitized incoming
// X-Trace-Id and returning the ID on the response), records the per-route
// counters and latency histogram, and emits exactly one structured
// access-log line per request — including streamed/NDJSON responses and
// requests no handler matched.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}

		reqID := obs.SanitizeID(r.Header.Get("X-Request-Id"))
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		rec.Header().Set("X-Request-Id", reqID)

		var span *obs.Span
		if shouldTrace(r.URL.Path) {
			var ctx context.Context
			ctx, span = s.tracer.StartRootWithParent(r.Context(),
				obs.SanitizeID(r.Header.Get("X-Trace-Id")),
				obs.SanitizeID(r.Header.Get("X-Parent-Span-Id")), "serve.request")
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			rec.Header().Set("X-Trace-Id", span.TraceID())
			r = r.WithContext(ctx)
		}

		next.ServeHTTP(rec, r)

		status := rec.status
		if status == 0 {
			// The handler wrote neither header nor body; the wire carries
			// an implicit 200, so report that instead of a phantom 0.
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		route := rec.route
		if route == "" {
			route = fallbackRoute(r.URL.Path)
		}
		s.metrics.observe(route, status, elapsed.Seconds())

		if span != nil {
			span.SetAttr("status", strconv.Itoa(status))
			span.End()
		}

		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
			slog.String("request_id", reqID),
		}
		if span != nil {
			attrs = append(attrs, slog.String("trace_id", span.TraceID()))
		}
		if rec.logErr != nil {
			attrs = append(attrs, slog.String("error", rec.logErr.Error()))
		}
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	})
}

// shouldTrace reports whether a path gets a root span. The observability
// endpoints are exempt: scrapes and trace lookups polling the server must
// not fill the trace ring with records of themselves.
func shouldTrace(path string) bool {
	return path != "/healthz" && path != "/readyz" && path != "/metrics" &&
		!strings.HasPrefix(path, "/debug/")
}

// fallbackRoute labels requests that never reached handle(): the
// observability endpoints and unmatched paths. Raw URLs are unbounded, so
// anything unknown collapses into one label value.
func fallbackRoute(path string) string {
	switch {
	case path == "/healthz" || path == "/readyz" || path == "/metrics":
		return path
	case strings.HasPrefix(path, "/debug/trace/"):
		return "/debug/trace/{id}"
	default:
		return "unmatched"
	}
}

// handleHealthz is liveness: the process is up and the HTTP stack can
// answer. It stays 200 through every lifecycle state — a draining server
// is alive; restarting it because readiness went away would turn every
// deploy into a crash loop. The current state rides along for operators.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": s.Lifecycle()})
}

// handleReadyz is readiness: 200 exactly while the server wants new
// traffic. Load balancers (nanocostfront among them) poll this to decide
// routing; starting and draining both answer 503 with a short Retry-After
// so a rolling restart sheds traffic before connections are cut.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := lifecycle(s.state.Load())
	if state == lifecycleReady {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": state.String()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w)
}

// traceResponse is the GET /debug/trace/{id} payload: the span tree of a
// recently completed traced request.
type traceResponse struct {
	TraceID      string          `json:"trace_id"`
	DroppedSpans int             `json:"dropped_spans,omitempty"`
	Spans        []*obs.SpanTree `json:"spans"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	raw := trimmedPathValue(r, "id")
	id := obs.SanitizeID(raw)
	trace, ok := s.tracer.Lookup(id)
	if id == "" || !ok {
		writeError(w, &apiError{status: http.StatusNotFound, code: "trace_not_found",
			err: fmt.Errorf("no recorded trace %q (the ring keeps the last %d traces)", raw, traceRingCapacity)})
		return
	}
	writeJSON(w, http.StatusOK, traceResponse{
		TraceID:      trace.TraceID,
		DroppedSpans: trace.DroppedSpans,
		Spans:        trace.Tree(),
	})
}

// decodeJSON strictly decodes the request body into T: unknown fields,
// trailing garbage, malformed JSON and oversized bodies are all rejected
// with the status asAPIError assigns.
func decodeJSON[T any](r *http.Request) (T, error) {
	return decodeJSONFrom[T](r.Body)
}

// decodeJSONFrom is decodeJSON for a body already taken off its request.
func decodeJSONFrom[T any](body io.Reader) (T, error) {
	var v T
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return v, err
		}
		return v, &apiError{status: http.StatusBadRequest, code: "invalid_request",
			err: fmt.Errorf("malformed request body: %w", err)}
	}
	if dec.More() {
		return v, &apiError{status: http.StatusBadRequest, code: "invalid_request",
			err: errors.New("request body contains trailing data")}
	}
	return v, nil
}

// trimmedPathValue returns the {name} path segment without surrounding
// whitespace.
func trimmedPathValue(r *http.Request, name string) string {
	return strings.TrimSpace(r.PathValue(name))
}
