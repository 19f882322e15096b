package serve

import (
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/delay"
	"repro/internal/machine"
)

// WeakenPair is one deliberately dropped delay edge in a request (test
// scaffolding for the dynamic verifier, mirroring splitc.Options.Weaken).
type WeakenPair struct {
	A int `json:"a"`
	B int `json:"b"`
}

// CompileRequest asks for one compilation of Source.
type CompileRequest struct {
	// Source is the MiniSplit program text.
	Source string `json:"source"`
	// Procs is the compile-time machine size (required, positive).
	Procs int `json:"procs"`
	// Machine is the cost-model name (machine.Names; default "cm5").
	Machine string `json:"machine,omitempty"`
	// Level is the optimization level name (splitc.ParseLevel; default
	// "oneway").
	Level string `json:"level,omitempty"`
	// CSE enables communication elimination.
	CSE bool `json:"cse,omitempty"`
	// Exact uses the exponential simple-path search in cycle detection.
	Exact bool `json:"exact,omitempty"`
	// Weaken lists delay pairs codegen must drop (seeds SC violations for
	// verification; empty for real compiles).
	Weaken []WeakenPair `json:"weaken,omitempty"`
	// TimeoutMs bounds this request's server-side work (0: the server's
	// default; clamped to the server's maximum).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// PassStat is the per-pass instrumentation of a served compile.
type PassStat struct {
	Name     string         `json:"name"`
	WallNs   int64          `json:"wall_ns"`
	Counters map[string]int `json:"counters,omitempty"`
}

// CompileResult is the cacheable body of a compile response: everything
// below is a pure function of the request tuple.
type CompileResult struct {
	// Target is the generated split-phase code.
	Target string `json:"target"`
	// DelayPairs is the size of the delay set the analysis refined, D.
	// BaselinePairs is the plain Shasha–Snir set's, reported only at level
	// baseline, the one compile that enforces (and so computes) that set.
	DelayPairs    int `json:"delay_pairs"`
	BaselinePairs int `json:"baseline_pairs,omitempty"`
	// Codegen is the optimizer statistics rendered as counters.
	Codegen map[string]int `json:"codegen,omitempty"`
	// Passes is the per-pass wall time and counters of the compile that
	// produced the artifact (a cache hit replays the original stats).
	Passes []PassStat `json:"passes,omitempty"`
	// Warnings are the non-fatal diagnostics.
	Warnings []string `json:"warnings,omitempty"`
}

// Envelope is how one request's artifact was obtained: the fields every
// cacheable route puts in front of its result. The server splices the stored
// artifact in behind it, so no *Result field may reuse one of these names.
type Envelope struct {
	// Key is the artifact's content address.
	Key string `json:"key"`
	// Cached reports whether the body came from the artifact cache;
	// Dedup reports whether it came from another in-flight request.
	Cached bool `json:"cached"`
	Dedup  bool `json:"dedup,omitempty"`
	// ElapsedMs is the server-side latency of this request.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// CompileResponse is the wire response of /v1/compile.
type CompileResponse struct {
	Envelope
	CompileResult
}

// AnalyzeRequest asks for the synchronization analysis of Source without
// code generation. Machine and Level are validated as a compile's are, but
// the analysis reads neither, so they are not in its cache key.
type AnalyzeRequest struct {
	Source    string `json:"source"`
	Procs     int    `json:"procs"`
	Machine   string `json:"machine,omitempty"`
	Level     string `json:"level,omitempty"`
	Exact     bool   `json:"exact,omitempty"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// AnalyzeResult is the cacheable body of an analyze response.
type AnalyzeResult struct {
	// Accesses is the program's shared-access count.
	Accesses int `json:"accesses"`
	// BaselinePairs, D1Pairs, and DelayPairs are the sizes of the plain
	// Shasha–Snir set, the sync-restricted initial set, and the final
	// refined delay set.
	BaselinePairs int `json:"baseline_pairs"`
	D1Pairs       int `json:"d1_pairs"`
	DelayPairs    int `json:"delay_pairs"`
	// Regions and LargestRegion describe the SCC decomposition the
	// regionized engine solved.
	Regions       int `json:"regions"`
	LargestRegion int `json:"largest_region"`
	// RClasses is the number of R-equivalence classes of the
	// class-condensed precedence relation.
	RClasses int `json:"r_classes"`
	// Summary is the human-readable analysis summary.
	Summary string `json:"summary"`
}

// AnalyzeResponse is the wire response of /v1/analyze.
type AnalyzeResponse struct {
	Envelope
	AnalyzeResult
}

// VerifyRequest asks the dynamic SC verifier to check Source: compile at
// the requested levels, run a schedule grid, and report violations and
// outcome errors (internal/scverify).
type VerifyRequest struct {
	Source  string `json:"source"`
	Procs   int    `json:"procs"`
	Machine string `json:"machine,omitempty"`
	// Levels names the optimization levels to verify (default: the
	// verifier's blocking/pipelined/oneway grid).
	Levels []string `json:"levels,omitempty"`
	// Schedules is the schedule-grid size (default 4).
	Schedules int `json:"schedules,omitempty"`
	// Deterministic asserts the program computes one schedule-independent
	// answer; racy programs are instead checked against the exact SC
	// outcome set.
	Deterministic bool `json:"deterministic,omitempty"`
	// Weaken seeds violations, as in CompileRequest.
	Weaken    []WeakenPair `json:"weaken,omitempty"`
	CSE       bool         `json:"cse,omitempty"`
	TimeoutMs int          `json:"timeout_ms,omitempty"`
}

// VerifyResult is the cacheable body of a verify response.
type VerifyResult struct {
	OK   bool `json:"ok"`
	Runs int  `json:"runs"`
	// Violations are the happens-before cycles found, rendered with edge
	// provenance; OutcomeErrs are runs whose final state no SC execution
	// explains.
	Violations  []string `json:"violations,omitempty"`
	OutcomeErrs []string `json:"outcome_errs,omitempty"`
	ExactOracle bool     `json:"exact_oracle"`
	Summary     string   `json:"summary"`
}

// VerifyResponse is the wire response of /v1/verify.
type VerifyResponse struct {
	Envelope
	VerifyResult
}

// StatsResponse is the wire response of /v1/stats.
type StatsResponse struct {
	UptimeSec float64 `json:"uptime_sec"`
	Workers   int     `json:"workers"`
	// Requests counts completed requests per endpoint.
	Requests map[string]int64 `json:"requests"`
	// CacheHits/CacheMisses count artifact-cache outcomes; DedupHits
	// counts requests served by another request's in-flight computation.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DedupHits   int64 `json:"dedup_hits"`
	// Errors counts requests answered with a non-2xx status.
	Errors int64 `json:"errors"`
	// Timeouts counts requests that hit their deadline server-side.
	Timeouts int64 `json:"timeouts"`
	// Panics counts computations that panicked on a pool worker and were
	// answered 500. StoreMalformed counts bodies a store returned that were
	// not a JSON object and were recomputed instead of served (the disk
	// backend checks its own frames and drops a corrupt file as a miss).
	Panics         int64 `json:"panics"`
	StoreMalformed int64 `json:"store_malformed"`
	// InFlight is the number of requests currently executing or queued.
	InFlight int64 `json:"in_flight"`
	// StoreLen/StoreBytes describe the artifact store.
	StoreLen   int   `json:"store_len"`
	StoreBytes int64 `json:"store_bytes"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// toPairs converts wire weaken pairs to delay pairs.
func toPairs(ws []WeakenPair) []delay.Pair {
	if len(ws) == 0 {
		return nil
	}
	out := make([]delay.Pair, len(ws))
	for i, w := range ws {
		out[i] = delay.Pair{A: w.A, B: w.B}
	}
	return out
}

// normalizeCompile validates and defaults a compile request, returning
// the splitc options and the cache key.
func normalizeCompile(req *CompileRequest) (splitc.Options, Key, error) {
	opts := splitc.Options{Procs: req.Procs, CSE: req.CSE, Exact: req.Exact, Weaken: toPairs(req.Weaken)}
	key := Key{Kind: "compile", Fingerprint: SourceFingerprint(req.Source), Procs: req.Procs,
		CSE: req.CSE, Exact: req.Exact, Weaken: CanonicalWeaken(opts.Weaken)}
	if req.Source == "" {
		return opts, key, fmt.Errorf("source must be non-empty")
	}
	if req.Procs <= 0 {
		return opts, key, fmt.Errorf("procs must be positive")
	}
	mach := req.Machine
	if mach == "" {
		mach = "cm5"
	}
	if _, err := machine.ByName(mach, req.Procs); err != nil {
		return opts, key, err
	}
	key.Machine = mach
	lvl := req.Level
	if lvl == "" {
		lvl = "oneway"
	}
	level, err := splitc.ParseLevel(lvl)
	if err != nil {
		return opts, key, err
	}
	opts.Level = level
	key.Level = lvl
	return opts, key, nil
}

// normalizeAnalyze validates and defaults an analyze request: a compile
// request without the code-generation knobs, under its own key namespace.
// Its artifact is the front's (analyzeResult), which reads the source,
// procs and exact alone, so the key drops the machine and the level.
func normalizeAnalyze(req *AnalyzeRequest) (splitc.Options, Key, error) {
	opts, key, err := normalizeCompile(&CompileRequest{Source: req.Source, Procs: req.Procs,
		Machine: req.Machine, Level: req.Level, Exact: req.Exact})
	key.Kind, key.Machine, key.Level = "analyze", "", ""
	return opts, key, err
}

// normalizeVerify validates and defaults a verify request (Schedules in
// place), returning the levels to verify and the cache key: the level list
// takes the key's Level slot and the schedule-grid knobs go in Extra.
func normalizeVerify(req *VerifyRequest) ([]splitc.Level, Key, error) {
	_, key, err := normalizeCompile(&CompileRequest{Source: req.Source, Procs: req.Procs,
		Machine: req.Machine, Level: "oneway", CSE: req.CSE, Weaken: req.Weaken})
	if err != nil {
		return nil, key, err
	}
	if req.Schedules <= 0 {
		req.Schedules = 4
	}
	names := strings.Join(req.Levels, ",")
	levels, err := splitc.ParseLevels(names)
	key.Kind = "verify"
	key.Level = names
	key.Extra = fmt.Sprintf("sched=%d,det=%v", req.Schedules, req.Deterministic)
	return levels, key, err
}

// clampTimeout resolves a request's timeout against the server's default
// and ceiling.
func clampTimeout(ms int, def, max time.Duration) time.Duration {
	if ms <= 0 {
		return def
	}
	d := time.Duration(ms) * time.Millisecond
	if d > max {
		return max
	}
	return d
}
