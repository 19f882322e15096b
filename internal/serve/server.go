package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/machine"
	"repro/internal/pass"
	"repro/internal/scverify"
)

// Config configures a Server.
type Config struct {
	// Workers bounds concurrent pipeline executions (non-positive: one
	// per CPU). HTTP handling itself is unbounded; only the expensive
	// compile/analyze/verify work queues on the pool, so /v1/stats stays
	// responsive under load.
	Workers int
	// Store is the artifact cache backend (nil: NewMemStore(0)).
	Store Store
	// MaxRequestBytes bounds a request body (non-positive: 8 MiB).
	MaxRequestBytes int64
	// DefaultTimeout bounds a request that names no timeout_ms
	// (non-positive: 30s). MaxTimeout caps what a request may ask for
	// (non-positive: 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Logger receives one structured (JSON) line per completed request;
	// nil disables request logging.
	Logger *log.Logger
}

// Server implements the pscd endpoints over an artifact cache, a
// singleflight group, and a bounded worker pool. Create with New, expose
// via Handler, and Close when done.
type Server struct {
	cfg    Config
	store  Store
	pool   *bench.Pool
	flight flightGroup
	mux    *http.ServeMux
	start  time.Time

	reqMu    sync.Mutex
	requests map[string]int64

	hits      atomic.Int64
	misses    atomic.Int64
	dedups    atomic.Int64
	errors    atomic.Int64
	timeouts  atomic.Int64
	panics    atomic.Int64
	malformed atomic.Int64
	inflight  atomic.Int64
	draining  atomic.Bool
}

// New creates a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store = NewMemStore(0)
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 8 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	s := &Server{
		cfg:      cfg,
		store:    cfg.Store,
		pool:     bench.NewPool(cfg.Workers),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		requests: make(map[string]int64),
	}
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool after in-flight tasks finish and closes the
// store. Call after the HTTP server has drained.
func (s *Server) Close() {
	s.pool.Close()
	s.store.Close()
}

// SetDraining marks the server as draining: new requests are refused with
// 503 while in-flight ones complete. cmd/pscd flips this on SIGTERM
// before http.Server.Shutdown, so load balancers and the load generator
// observe a clean drain instead of connection resets.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Stats snapshots the server's counters.
func (s *Server) Stats() StatsResponse {
	s.reqMu.Lock()
	reqs := make(map[string]int64, len(s.requests))
	for k, v := range s.requests {
		reqs[k] = v
	}
	s.reqMu.Unlock()
	return StatsResponse{
		UptimeSec:      time.Since(s.start).Seconds(),
		Workers:        s.pool.Size(),
		Requests:       reqs,
		CacheHits:      s.hits.Load(),
		CacheMisses:    s.misses.Load(),
		DedupHits:      s.dedups.Load(),
		Errors:         s.errors.Load(),
		Timeouts:       s.timeouts.Load(),
		Panics:         s.panics.Load(),
		StoreMalformed: s.malformed.Load(),
		InFlight:       s.inflight.Load(),
		StoreLen:       s.store.Len(),
		StoreBytes:     s.store.SizeBytes(),
	}
}

func (s *Server) countRequest(endpoint string) {
	s.reqMu.Lock()
	s.requests[endpoint]++
	s.reqMu.Unlock()
}

// logRequest emits one structured JSON line per completed request.
// passes attributes the per-pass wall time of the compile this request ran
// (nil off the compile endpoint, for hits and followers, which ran none,
// and for failed requests); stack is a panicked computation's.
func (s *Server) logRequest(endpoint, key, cache string, status int, elapsed time.Duration, passes []PassStat, stack []byte) {
	if s.cfg.Logger == nil {
		return
	}
	entry := map[string]any{
		"endpoint":   endpoint,
		"key":        key,
		"cache":      cache,
		"status":     status,
		"elapsed_ms": float64(elapsed.Microseconds()) / 1000,
	}
	if len(passes) > 0 {
		pw := make(map[string]float64, len(passes))
		for _, p := range passes {
			pw[p.Name] = float64(p.WallNs) / 1e6
		}
		entry["pass_ms"] = pw
	}
	if len(stack) > 0 {
		entry["stack"] = string(stack)
	}
	b, err := json.Marshal(entry)
	if err != nil {
		return
	}
	s.cfg.Logger.Print(string(b))
}

// writeError answers with a JSON error body.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// panicError is a computation that panicked on a pool worker. It reaches
// the leader and every singleflight follower like any compute error.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("internal error: panic: %v", e.value) }

// errStatus maps an execution error to an HTTP status: deadline/cancel to
// 504, queue-full/drain to 503, a panic to 500, everything else (compile
// errors) to 422.
func errStatus(err error) int {
	var pe *panicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// ReadSized reads r to its end into one buffer sized for the n bytes its
// Content-Length announced (negative: unknown; at most 16 MiB on a header's
// word alone) plus the MinRead spare bytes ReadFrom wants before it sees EOF.
func ReadSized(r io.Reader, n int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(n, 0), 16<<20)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decode reads and unmarshals a size-limited request body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) error {
	body, err := ReadSized(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes), min(r.ContentLength, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return err
	}
	return json.Unmarshal(body, into)
}

// serveCached executes one cacheable request end to end: cache lookup,
// singleflight, pool execution under the request deadline, cache fill.
// compute runs on a pool worker and must honor ctx; a panic in it is
// contained there and becomes a *panicError. The returned body is the
// cached artifact, a JSON object; cached/dedup report how it was obtained.
func (s *Server) serveCached(ctx context.Context, id string, compute func(ctx context.Context) ([]byte, error)) (body []byte, cached, dedup bool, err error) {
	// A backend error degrades to compute-always — a sick store must not
	// take the service down — so any non-hit is a miss. So is a body that
	// is not an object: writeSpliced could not serve it, and the recompute
	// overwrites it.
	if body, ok, gerr := s.store.Get(id); gerr == nil && ok {
		if n := len(body); n >= 2 && body[0] == '{' && body[n-1] == '}' {
			s.hits.Add(1)
			return body, true, false, nil
		}
		s.malformed.Add(1)
	}
	s.misses.Add(1)
	body, shared, err := s.flight.Do(ctx, id, func() ([]byte, error) {
		out := make(chan struct{})
		var b []byte
		var cerr error
		if serr := s.pool.Submit(ctx, func() {
			defer close(out)
			defer func() {
				if p := recover(); p != nil {
					s.panics.Add(1)
					cerr = &panicError{value: p, stack: debug.Stack()}
				}
			}()
			b, cerr = compute(ctx)
		}); serr != nil {
			return nil, serr
		}
		// The worker always finishes (compute aborts at the next pass
		// boundary once ctx expires); waiting for it keeps the artifact
		// fill and the bounded-concurrency invariant intact.
		<-out
		if cerr != nil {
			return nil, cerr
		}
		if perr := s.store.Put(id, b); perr != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Printf(`{"event":"store_put_error","key":%q,"error":%q}`, id, perr.Error())
		}
		return b, nil
	})
	if shared && err == nil {
		s.dedups.Add(1)
	}
	return body, false, shared, err
}

// handleCached serves one cacheable route — everything /v1/compile,
// /v1/analyze and /v1/verify share: in-flight and per-endpoint counting,
// the drain check, decoding, the deadline, the cached execution, status
// mapping, the response, and exactly one log line per request that got
// past the drain check. normalize validates and defaults the decoded
// request and returns its cache key, its timeout_ms, and the computation of
// its artifact. Res is a struct: its encoding is marshalled once, on the
// pool worker, and from there to the socket the artifact is bytes.
func handleCached[Req, Res any](s *Server, w http.ResponseWriter, r *http.Request, endpoint string,
	normalize func(req *Req) (Key, int, func(ctx context.Context) (*Res, error), error)) {

	start := time.Now()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.countRequest(endpoint)
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	fail := func(status int, key, cache string, err error) {
		s.writeError(w, status, err)
		var stack []byte
		var pe *panicError
		if errors.As(err, &pe) {
			cache, stack = "panic", pe.stack
		}
		s.logRequest(endpoint, key, cache, status, time.Since(start), nil, stack)
	}
	var req Req
	if err := s.decode(w, r, &req); err != nil {
		fail(http.StatusBadRequest, "", "reject", err)
		return
	}
	key, timeoutMs, compute, err := normalize(&req)
	if err != nil {
		fail(http.StatusBadRequest, "", "reject", err)
		return
	}
	id := key.ID()
	ctx, cancel := context.WithTimeout(r.Context(), clampTimeout(timeoutMs, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	defer cancel()

	var passes []PassStat // of the compile this request ran, if it ran one
	body, cached, dedup, err := s.serveCached(ctx, id, func(ctx context.Context) ([]byte, error) {
		res, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		if cr, ok := any(res).(*CompileResult); ok {
			passes = cr.Passes
		}
		return json.Marshal(res)
	})
	if err != nil {
		status := errStatus(err)
		if status == http.StatusGatewayTimeout {
			s.timeouts.Add(1)
		}
		fail(status, key.Short(), cacheLabel(cached, dedup), err)
		return
	}
	s.writeSpliced(w, Envelope{Key: id, Cached: cached, Dedup: dedup,
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000}, body)
	s.logRequest(endpoint, key.Short(), cacheLabel(cached, dedup), http.StatusOK, time.Since(start), passes, nil)
}

// writeSpliced answers 200 with env's fields in front of the artifact's:
// the bytes json.NewEncoder writes for the route's typed *Response, without
// decoding the artifact. body is an object (serveCached), possibly empty.
func (s *Server) writeSpliced(w http.ResponseWriter, env Envelope, body []byte) {
	head, _ := json.Marshal(env) // strings, bools and a finite float: cannot fail
	out := append(make([]byte, 0, len(head)+len(body)+1), head[:len(head)-1]...)
	if len(body) > 2 {
		out = append(out, ',')
	}
	out = append(append(out, body[1:]...), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	if _, err := w.Write(out); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf(`{"event":"write_error","error":%q}`, err.Error())
	}
}

// handleCompile serves /v1/compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	handleCached(s, w, r, "compile",
		func(req *CompileRequest) (Key, int, func(context.Context) (*CompileResult, error), error) {
			opts, key, err := normalizeCompile(req)
			return key, req.TimeoutMs, func(ctx context.Context) (*CompileResult, error) {
				return compileResult(ctx, req.Source, opts)
			}, err
		})
}

// handleAnalyze serves /v1/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	handleCached(s, w, r, "analyze",
		func(req *AnalyzeRequest) (Key, int, func(context.Context) (*AnalyzeResult, error), error) {
			opts, key, err := normalizeAnalyze(req)
			return key, req.TimeoutMs, func(ctx context.Context) (*AnalyzeResult, error) {
				return analyzeResult(ctx, req.Source, opts)
			}, err
		})
}

// handleVerify serves /v1/verify.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	handleCached(s, w, r, "verify",
		func(req *VerifyRequest) (Key, int, func(context.Context) (*VerifyResult, error), error) {
			levels, key, err := normalizeVerify(req)
			return key, req.TimeoutMs, func(ctx context.Context) (*VerifyResult, error) {
				return verifyResult(ctx, req, key.Machine, levels)
			}, err
		})
}

// handleStats serves /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&st); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf(`{"event":"write_error","error":%q}`, err.Error())
	}
}

func cacheLabel(cached, dedup bool) string {
	switch {
	case cached:
		return "hit"
	case dedup:
		return "dedup"
	default:
		return "miss"
	}
}

// compileResult compiles src and packages the cacheable artifact.
func compileResult(ctx context.Context, src string, opts splitc.Options) (*CompileResult, error) {
	prog, err := splitc.CompileContext(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	res := &CompileResult{
		Target:     prog.Target.String(),
		DelayPairs: prog.Analysis.D.Size(),
		Codegen:    prog.Codegen.Map(),
		Passes:     passStats(prog.Passes),
	}
	if opts.Level == splitc.LevelBaseline {
		res.BaselinePairs = prog.Analysis.Baseline.Size()
	}
	for _, d := range prog.Diags {
		if d.Sev == diag.Warning {
			res.Warnings = append(res.Warnings, d.String())
		}
	}
	return res, nil
}

// analyzeResult runs the front half only: parse through sync-analysis.
func analyzeResult(ctx context.Context, src string, opts splitc.Options) (*AnalyzeResult, error) {
	front, err := splitc.NewFront(ctx, src, opts, nil)
	if err != nil {
		return nil, err
	}
	a := front.Analysis
	return &AnalyzeResult{
		Accesses:      len(front.Fn.Accesses),
		BaselinePairs: a.Baseline.Size(),
		D1Pairs:       a.D1.Size(),
		DelayPairs:    a.D.Size(),
		Regions:       a.Regions,
		LargestRegion: a.LargestRegion,
		RClasses:      a.RClasses,
		Summary:       a.Summary(),
	}, nil
}

// verifyResult runs the dynamic SC verifier. The verifier compiles and
// simulates internally; it checks ctx at every pass boundary, before every
// simulated run and every 1024 states of the SC enumeration, so a
// timed-out verify stops within one of those of the deadline. It runs the
// levels on goroutines of its own and waits for them; a panic on one comes
// back as a panic here, on the pool worker that contains it.
func verifyResult(ctx context.Context, req *VerifyRequest, mach string, levels []splitc.Level) (*VerifyResult, error) {
	cfg, err := machine.ByName(mach, req.Procs)
	if err != nil {
		return nil, err
	}
	rep, err := scverify.VerifyContext(ctx, req.Source, scverify.Options{
		Procs:         req.Procs,
		Levels:        levels,
		Machine:       cfg,
		Schedules:     scverify.Schedules(req.Schedules),
		Deterministic: req.Deterministic,
		Weaken:        toPairs(req.Weaken),
		CSE:           req.CSE,
	})
	if err != nil {
		return nil, err
	}
	res := &VerifyResult{OK: rep.OK(), Runs: rep.Runs(), ExactOracle: rep.ExactOracle, Summary: rep.Summary()}
	for _, lr := range rep.Levels {
		for _, v := range lr.Violations {
			res.Violations = append(res.Violations, fmt.Sprintf("%s: %s", lr.Level, v))
		}
		for _, oe := range lr.OutcomeErrs {
			res.OutcomeErrs = append(res.OutcomeErrs, oe.Error())
		}
	}
	return res, nil
}

func passStats(stats []pass.Stat) []PassStat {
	out := make([]PassStat, len(stats))
	for i, st := range stats {
		out[i] = PassStat{Name: st.Name, WallNs: st.Wall.Nanoseconds(), Counters: st.Counters}
	}
	return out
}
