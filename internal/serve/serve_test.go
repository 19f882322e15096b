package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// newTestServer starts an in-process daemon over httptest and returns a
// client for it.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client) {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, client.New(hs.URL, client.WithHTTPClient(hs.Client()))
}

// post sends body to a cacheable route through the handler alone: a
// recorder, no socket and no client.
func post(s *serve.Server, route, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/"+route, strings.NewReader(body)))
	return rec
}

// slowSource is a program whose compile takes tens of milliseconds — big
// enough that a small request deadline reliably expires mid-pipeline.
func slowSource() string {
	return progen.Generate(7, progen.Options{
		Procs: 8, MaxPhases: 20, MaxStmts: 16, MaxDepth: 4, Arrays: 6, Scalars: 6,
	})
}

// TestCompileMatchesDirect pins the service against the library: the
// served target code and delay counts must equal a direct splitc.Compile.
func TestCompileMatchesDirect(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	for _, k := range apps.All() {
		src := k.Source(8, 1)
		for _, lvl := range []string{"blocking", "pipelined", "oneway"} {
			resp, err := c.Compile(context.Background(), &serve.CompileRequest{
				Source: src, Procs: 8, Level: lvl,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, lvl, err)
			}
			level, _ := splitc.ParseLevel(lvl)
			want := splitc.MustCompile(src, splitc.Options{Procs: 8, Level: level})
			if resp.Target != want.Target.String() {
				t.Errorf("%s/%s: served target differs from direct compile", k.Name, lvl)
			}
			if resp.DelayPairs != want.Analysis.D.Size() {
				t.Errorf("%s/%s: delay pairs %d, want %d", k.Name, lvl, resp.DelayPairs, want.Analysis.D.Size())
			}
			if resp.Cached {
				t.Errorf("%s/%s: first request reported cached", k.Name, lvl)
			}
			if len(resp.Passes) == 0 {
				t.Errorf("%s/%s: no pass stats in response", k.Name, lvl)
			}
		}
	}
}

// TestCompileReportsBaselineOnlyAtBaseline: the plain Shasha–Snir set is
// computed only when something reads it, so a compile reports its size only
// at level baseline, where it is the enforced set. A one-way response has
// no baseline_pairs member at all; a baseline response's equals the
// library's.
func TestCompileReportsBaselineOnlyAtBaseline(t *testing.T) {
	s := serve.New(serve.Config{})
	t.Cleanup(s.Close)
	src := apps.Ocean().Source(8, 1)
	for _, lvl := range []splitc.Level{splitc.LevelOneWay, splitc.LevelBaseline} {
		body, _ := json.Marshal(&serve.CompileRequest{Source: src, Procs: 8, Level: lvl.String()})
		rec := post(s, "compile", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %.200s", lvl, rec.Code, rec.Body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &fields); err != nil {
			t.Fatalf("%s: response does not decode: %v", lvl, err)
		}
		raw, present := fields["baseline_pairs"]
		if lvl != splitc.LevelBaseline {
			if present {
				t.Errorf("%s: response carries baseline_pairs %s", lvl, raw)
			}
			continue
		}
		want := splitc.MustCompile(src, splitc.Options{Procs: 8, Level: lvl}).Analysis.Baseline.Size()
		if got, err := strconv.Atoi(string(raw)); err != nil || got != want {
			t.Errorf("%s: baseline_pairs %q, want %d", lvl, raw, want)
		}
	}
}

// mpLitmus is the message-passing litmus (benchmark/litmus/mp.ms): p0 writes
// X and posts the event p1 waits on before reading X.
const mpLitmus = `
shared int X on 1 = 0;
shared int R on 1 = 0;
event E[2];
func main() {
	if (MYPROC == 0) {
		X = 7;
		post(E[1]);
	}
	if (MYPROC == 1) {
		wait(E[1]);
		R = X;
	}
}
`

// TestNoPassListOnTheWire: the steps of section 6 run in section 6's order
// and a request cannot say otherwise. A "passes" member that puts one-way
// conversion before sync motion — which, while the server honoured it,
// answered 200 with p0's write a one-way store racing the post — is not a
// request field: the answer is the artifact of the same request without it,
// and p0 still completes its put before it posts.
func TestNoPassListOnTheWire(t *testing.T) {
	s := serve.New(serve.Config{})
	defer s.Close()
	compile := func(extra string) serve.CompileResponse {
		t.Helper()
		src, _ := json.Marshal(mpLitmus)
		rec := post(s, "compile", `{"source":`+string(src)+`,"procs":2,"level":"oneway"`+extra+`}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp serve.CompileResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	listed := compile(`,"passes":["parse","check","build-ir","conflict","cycle-detect","sync-analysis",` +
		`"split-phase","one-way","sync-motion","counter-alloc","insert-syncs"]`)
	plain := compile("")
	if listed.Target != plain.Target || listed.Key != plain.Key {
		t.Errorf("a passes member changed the answer:\n--- with ---\n%s--- without ---\n%s", listed.Target, plain.Target)
	}
	at := 0
	for _, want := range []string{"put_ctr X = 7", "sync_ctr", "post E[1]"} {
		i := strings.Index(listed.Target[at:], want)
		if i < 0 {
			t.Fatalf("target lacks %q after offset %d: p0 must put, sync, then post\n%s", want, at, listed.Target)
		}
		at += i + len(want)
	}
}

// TestCompileCacheHit pins the hit path: an identical second request is
// served from the artifact cache byte-identically, and a request
// differing in any tuple field misses.
func TestCompileCacheHit(t *testing.T) {
	s, c := newTestServer(t, serve.Config{})
	req := &serve.CompileRequest{Source: apps.EM3D().Source(8, 1), Procs: 8, Level: "oneway"}
	first, err := c.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Key != first.Key {
		t.Fatalf("second request: cached=%v key match=%v", second.Cached, second.Key == first.Key)
	}
	if second.Target != first.Target || second.DelayPairs != first.DelayPairs {
		t.Fatal("cached artifact differs from original")
	}
	// Same source, different level: distinct artifact.
	third, err := c.Compile(context.Background(), &serve.CompileRequest{
		Source: req.Source, Procs: 8, Level: "blocking",
	})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Key == first.Key {
		t.Fatalf("level change: cached=%v, keys equal=%v", third.Cached, third.Key == first.Key)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
}

// TestConcurrentIdenticalRequests pins the concurrency contract: many
// identical requests in flight produce one computation; everyone else is
// served by the cache or the singleflight leader, with no errors.
func TestConcurrentIdenticalRequests(t *testing.T) {
	s, c := newTestServer(t, serve.Config{Workers: 2})
	req := &serve.CompileRequest{Source: slowSource(), Procs: 8, Level: "oneway"}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]*serve.CompileResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Compile(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if resps[i].Target != resps[0].Target {
			t.Fatalf("request %d returned different target code", i)
		}
	}
	st := s.Stats()
	// Executions = misses - dedups. The tiny window between a leader's
	// cache fill and its singleflight de-registration permits a rare
	// extra leader; what must never happen is one execution per request.
	executions := st.CacheMisses - st.DedupHits
	if executions < 1 || executions > n/4 {
		t.Fatalf("executions = %d (misses=%d dedups=%d hits=%d), want 1..%d",
			executions, st.CacheMisses, st.DedupHits, st.CacheHits, n/4)
	}
	if st.CacheHits+st.DedupHits+st.CacheMisses < n {
		t.Fatalf("accounting: hits=%d dedups=%d misses=%d < %d requests",
			st.CacheHits, st.DedupHits, st.CacheMisses, n)
	}
}

// TestRequestTimeout pins deadline behavior: a request whose timeout_ms
// is far below its compile cost gets 504, the pipeline aborts at a pass
// boundary, and the same request with a sane deadline then succeeds.
func TestRequestTimeout(t *testing.T) {
	s, c := newTestServer(t, serve.Config{})
	// The source must cost well over the 1ms deadline even as the analysis
	// keeps getting faster, so it is much larger than slowSource.
	src := progen.Generate(7, progen.Options{
		Procs: 8, MaxPhases: 24, MaxStmts: 96, MaxDepth: 4, Arrays: 6, Scalars: 6,
	})
	req := &serve.CompileRequest{Source: src, Procs: 8, Level: "oneway", TimeoutMs: 1}
	_, err := c.Compile(context.Background(), req)
	if !client.IsTimeout(err) {
		t.Fatalf("err = %v, want request-timeout", err)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
	// A failed compute must not have poisoned the cache.
	req.TimeoutMs = 0
	resp, err := c.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("timed-out request must not leave a cached artifact")
	}
}

// TestDrain pins shutdown behavior: a draining server answers 503 and the
// client classifies it.
func TestDrain(t *testing.T) {
	s, c := newTestServer(t, serve.Config{})
	if _, err := c.Compile(context.Background(), &serve.CompileRequest{
		Source: apps.EM3D().Source(8, 1), Procs: 8, Level: "oneway",
	}); err != nil {
		t.Fatal(err)
	}
	s.SetDraining()
	_, err := c.Compile(context.Background(), &serve.CompileRequest{
		Source: apps.EM3D().Source(8, 1), Procs: 8, Level: "oneway",
	})
	if !client.IsDraining(err) {
		t.Fatalf("err = %v, want draining 503", err)
	}
	// Stats stay reachable during drain.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("stats during drain: %v", err)
	}
}

// TestRequestSizeLimit pins the body bound.
func TestRequestSizeLimit(t *testing.T) {
	_, c := newTestServer(t, serve.Config{MaxRequestBytes: 1024})
	_, err := c.Compile(context.Background(), &serve.CompileRequest{
		Source: strings.Repeat("// padding\n", 200), Procs: 8, Level: "oneway",
	})
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}

// TestBadRequests pins validation: empty source, bad procs, unknown
// level/machine all answer 400 with a JSON error.
func TestBadRequests(t *testing.T) {
	s, c := newTestServer(t, serve.Config{})
	cases := []*serve.CompileRequest{
		{Source: "", Procs: 8},
		{Source: "x := 1;", Procs: 0},
		{Source: "x := 1;", Procs: 8, Level: "turbo"},
		{Source: "x := 1;", Procs: 8, Machine: "cray-3"},
	}
	for i, req := range cases {
		_, err := c.Compile(context.Background(), req)
		var ae *client.APIError
		if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("case %d: err = %v, want 400", i, err)
		}
	}
	// A syntactically broken program is a 422 (the pipeline ran and
	// rejected it), not a 400.
	_, err := c.Compile(context.Background(), &serve.CompileRequest{Source: "for (", Procs: 8})
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusUnprocessableEntity {
		t.Errorf("parse error: %v, want 422", err)
	}
	if st := s.Stats(); st.Errors != int64(len(cases))+1 {
		t.Errorf("Errors = %d, want %d", st.Errors, len(cases)+1)
	}
}

// TestDeepNestingIsRefused: a request body inside the 8 MiB limit used to be
// able to kill the process — a million nested parentheses, or a sum of three
// million terms, overflowed the goroutine stack, which no recover catches.
// Both are now a parse error on every route: 422 with a position, well
// under a second, and the server answers the next request.
func TestDeepNestingIsRefused(t *testing.T) {
	s, c := newTestServer(t, serve.Config{})
	positioned := regexp.MustCompile(`"\d+:\d+: nested too deeply`)
	for name, src := range map[string]string{
		"parens": "func main() { x = " + strings.Repeat("(", 1_000_000) + "1" + strings.Repeat(")", 1_000_000) + "; }",
		"sum":    "shared int X;\nfunc main() { X = 1" + strings.Repeat("+1", 3_000_000) + "; }",
	} {
		body, _ := json.Marshal(map[string]any{"source": src, "procs": 2})
		for _, route := range []string{"compile", "analyze", "verify"} {
			start := time.Now()
			rec := post(s, route, string(body))
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s on %s: answered after %v, want under a second", name, route, d)
			}
			if rec.Code != http.StatusUnprocessableEntity || !positioned.MatchString(rec.Body.String()) {
				t.Errorf("%s on %s: status %d, body %.200s; want 422 and a positioned parse error naming the bound", name, route, rec.Code, rec.Body)
			}
		}
	}
	if _, err := c.Compile(context.Background(), &serve.CompileRequest{Source: apps.Ocean().Source(4, 1), Procs: 4}); err != nil {
		t.Errorf("the request after the refusals: %v", err)
	}
}

// TestAnalyzeEndpoint pins /v1/analyze against the library analysis, and
// its cache key to what the analysis reads: a repeat and a request at
// another level both hit.
func TestAnalyzeEndpoint(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	src := apps.Ocean().Source(8, 1)
	resp, err := c.Analyze(context.Background(), &serve.AnalyzeRequest{Source: src, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := splitc.MustCompile(src, splitc.Options{Procs: 8, Level: splitc.LevelOneWay})
	if resp.DelayPairs != want.Analysis.D.Size() || resp.BaselinePairs != want.Analysis.Baseline.Size() {
		t.Fatalf("analyze D=%d baseline=%d, want %d/%d",
			resp.DelayPairs, resp.BaselinePairs, want.Analysis.D.Size(), want.Analysis.Baseline.Size())
	}
	if resp.Accesses == 0 || resp.Summary == "" {
		t.Fatalf("analyze missing accesses/summary: %+v", resp.AnalyzeResult)
	}
	// Analyze and compile artifacts of the same program are distinct.
	cresp, err := c.Compile(context.Background(), &serve.CompileRequest{Source: src, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cresp.Key == resp.Key {
		t.Fatal("compile and analyze share a content address")
	}
	second, err := c.Analyze(context.Background(), &serve.AnalyzeRequest{Source: src, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second analyze not cached")
	}
	// The analysis reads no level, so another level is the same artifact.
	third, err := c.Analyze(context.Background(), &serve.AnalyzeRequest{Source: src, Procs: 8, Level: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Key != resp.Key {
		t.Fatalf("analyze at another level: cached=%v, key match=%v", third.Cached, third.Key == resp.Key)
	}
}

// TestVerifyEndpoint pins /v1/verify: a clean program passes, a weakened
// compile of a racy idiom is flagged with a violation.
func TestVerifyEndpoint(t *testing.T) {
	_, c := newTestServer(t, serve.Config{DefaultTimeout: 2 * time.Minute})
	src := apps.EM3D().Source(4, 1)
	resp, err := c.Verify(context.Background(), &serve.VerifyRequest{
		Source: src, Procs: 4, Schedules: 2, Deterministic: true, Levels: []string{"oneway"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Runs == 0 {
		t.Fatalf("clean program: ok=%v runs=%d violations=%v outcome=%v",
			resp.OK, resp.Runs, resp.Violations, resp.OutcomeErrs)
	}
	second, err := c.Verify(context.Background(), &serve.VerifyRequest{
		Source: src, Procs: 4, Schedules: 2, Deterministic: true, Levels: []string{"oneway"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second verify not cached")
	}
}

// TestVerifyTimeout pins the deadline on /v1/verify: the verifier polls
// the request context before every simulated run, so a verdict of some
// 900 runs under a 1 ms deadline answers 504 long before the verdict
// would have finished, and counts as a timeout.
func TestVerifyTimeout(t *testing.T) {
	s, c := newTestServer(t, serve.Config{DefaultTimeout: 2 * time.Minute})
	req := &serve.VerifyRequest{
		Source: apps.Ocean().Source(4, 1), Procs: 4, Schedules: 300, Deterministic: true, TimeoutMs: 1,
	}
	start := time.Now()
	_, err := c.Verify(context.Background(), req)
	timedOut := time.Since(start)
	if !client.IsTimeout(err) {
		t.Fatalf("err = %v, want request-timeout", err)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
	// The same verdict with room to finish: not cached by the failure, and
	// several times the wall of the one that was cut short.
	req.TimeoutMs = 0
	start = time.Now()
	resp, err := c.Verify(context.Background(), req)
	full := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || !resp.OK || resp.Runs != 900 {
		t.Fatalf("full verdict: cached=%v ok=%v runs=%d, want a fresh clean verdict of 900 runs", resp.Cached, resp.OK, resp.Runs)
	}
	if timedOut > full/4 {
		t.Fatalf("timed-out verify took %v, the full verdict %v: the deadline did not cut the schedule grid short", timedOut, full)
	}
}

// TestStatsEndpoint pins the stats surface.
func TestStatsEndpoint(t *testing.T) {
	_, c := newTestServer(t, serve.Config{Workers: 3})
	if _, err := c.Compile(context.Background(), &serve.CompileRequest{
		Source: apps.Cholesky().Source(8, 1), Procs: 8,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.Requests["compile"] != 1 || st.StoreLen != 1 || st.StoreBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if !c.Healthy(context.Background()) {
		t.Fatal("healthz failed")
	}
}

// TestDiskBackedServer runs the hit path over the disk store, including a
// daemon restart: a new server over the same cache directory serves the
// old server's artifacts.
func TestDiskBackedServer(t *testing.T) {
	dir := t.TempDir()
	ds, err := serve.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, serve.Config{Store: ds})
	req := &serve.CompileRequest{Source: apps.Health().Source(8, 1), Procs: 8, Level: "pipelined"}
	first, err := c.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := serve.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, c2 := newTestServer(t, serve.Config{Store: ds2})
	resp, err := c2.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || resp.Target != first.Target {
		t.Fatalf("restarted server: cached=%v target match=%v", resp.Cached, resp.Target == first.Target)
	}
}

// TestLoggerOutput smoke-tests the structured request log.
func TestLoggerOutput(t *testing.T) {
	var buf lockedBuffer
	logger := log.New(&buf, "", 0)
	_, c := newTestServer(t, serve.Config{Logger: logger})
	if _, err := c.Compile(context.Background(), &serve.CompileRequest{
		Source: apps.EM3D().Source(8, 1), Procs: 8,
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"endpoint":"compile"`, `"cache":"miss"`, `"status":200`, `"pass_ms"`} {
		if !strings.Contains(out, want) {
			t.Errorf("log line missing %s: %s", want, out)
		}
	}
}

// TestRejectsAreLogged pins one log line per rejected request on every
// cacheable route: malformed JSON, a non-positive machine size, and unknown
// level or machine names all answer 400 and log status 400 with
// "cache":"reject" under the route's own endpoint name.
func TestRejectsAreLogged(t *testing.T) {
	var buf lockedBuffer
	s, _ := newTestServer(t, serve.Config{Logger: log.New(&buf, "", 0)})
	bodies := map[string][]string{
		"compile": {`{`, `{"source":"x","procs":0}`, `{"source":"x","procs":8,"level":"turbo"}`, `{"source":"x","procs":8,"machine":"cray-3"}`},
		"analyze": {`{`, `{"source":"x","procs":0}`, `{"source":"x","procs":8,"level":"turbo"}`, `{"source":"x","procs":8,"machine":"cray-3"}`},
		"verify":  {`{`, `{"source":"x","procs":0}`, `{"source":"x","procs":8,"levels":["turbo"]}`, `{"source":"x","procs":8,"machine":"cray-3"}`},
	}
	for _, route := range []string{"compile", "analyze", "verify"} {
		for _, body := range bodies[route] {
			before := buf.String()
			rec := post(s, route, body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", route, body, rec.Code)
			}
			logged := strings.TrimPrefix(buf.String(), before)
			if strings.Count(logged, "\n") != 1 {
				t.Errorf("%s %s: logged %d lines, want exactly one: %q", route, body, strings.Count(logged, "\n"), logged)
			}
			for _, want := range []string{`"endpoint":"` + route + `"`, `"status":400`, `"cache":"reject"`} {
				if !strings.Contains(logged, want) {
					t.Errorf("%s %s: log line missing %s: %q", route, body, want, logged)
				}
			}
		}
	}
}

// TestReadSized pins the sized read against an announced length that is
// right, unknown, short of the body, and beyond it: the bytes are the
// body's either way, and the right length costs a single buffer.
func TestReadSized(t *testing.T) {
	body := strings.Repeat("0123456789abcdef", 1000)
	for _, n := range []int64{int64(len(body)), -1, 0, 100, 1 << 30} {
		got, err := serve.ReadSized(strings.NewReader(body), n)
		if err != nil || string(got) != body {
			t.Errorf("announced %d: read %d bytes, err %v", n, len(got), err)
		}
	}
	r := strings.NewReader(body)
	if allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		serve.ReadSized(r, int64(len(body)))
	}); allocs > 2 {
		t.Errorf("a body of the announced length cost %.0f allocations, want the buffer and its header", allocs)
	}
}

// plantedStore answers every Get with the planted bytes until a Put
// overwrites them: a backend that hands back something pscd did not store.
type plantedStore struct {
	serve.Store
	planted []byte
}

func (p *plantedStore) Get(id string) ([]byte, bool, error) {
	if p.planted != nil {
		return p.planted, true, nil
	}
	return p.Store.Get(id)
}

func (p *plantedStore) Put(id string, body []byte) error {
	p.planted = nil
	return p.Store.Put(id, body)
}

// TestMalformedStoredBody pins what the splice trusts and what it does
// otherwise: a stored body that is not a JSON object is a miss — recomputed,
// overwritten, counted — never served and never a 500; the empty object is
// an object, and splices to an envelope-only response.
func TestMalformedStoredBody(t *testing.T) {
	src := apps.EM3D().Source(8, 1)
	want := splitc.MustCompile(src, splitc.Options{Procs: 8, Level: splitc.LevelOneWay}).Target.String()
	for _, garbage := range []string{"garbage", "", "{", `{"target":"x"`, `"target":"x"}`, "[]"} {
		store := &plantedStore{Store: serve.NewMemStore(0), planted: []byte(garbage)}
		s, c := newTestServer(t, serve.Config{Store: store})
		req := &serve.CompileRequest{Source: src, Procs: 8}
		for i, wantCached := range []bool{false, true} {
			resp, err := c.Compile(context.Background(), req)
			if err != nil {
				t.Fatalf("stored %q, request %d: %v", garbage, i, err)
			}
			if resp.Cached != wantCached || resp.Target != want {
				t.Fatalf("stored %q, request %d: cached %v, target match %v; want a fresh compile, then a hit on what it stored",
					garbage, i, resp.Cached, resp.Target == want)
			}
		}
		if st := s.Stats(); st.StoreMalformed != 1 || st.CacheMisses != 1 || st.CacheHits != 1 || st.Errors != 0 {
			t.Fatalf("stored %q: stats %+v, want 1 malformed, 1 miss, 1 hit, no errors", garbage, st)
		}
	}

	store := &plantedStore{Store: serve.NewMemStore(0), planted: []byte("{}")}
	s, _ := newTestServer(t, serve.Config{Store: store})
	rec := post(s, "compile", `{"source":"x","procs":8}`)
	var resp serve.CompileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("stored {}: status %d, body %q: %v", rec.Code, rec.Body, err)
	}
	if !resp.Cached || resp.Key == "" || resp.Target != "" || !strings.HasSuffix(rec.Body.String(), "}\n") || strings.Contains(rec.Body.String(), ",}") {
		t.Fatalf("stored {}: body %q, want the envelope alone", rec.Body)
	}
	if st := s.Stats(); st.StoreMalformed != 0 || st.CacheHits != 1 {
		t.Fatalf("stored {}: stats %+v, want a plain hit", st)
	}
}

// TestMachineRegistryAccepted accepts every registered cost model.
func TestMachineRegistryAccepted(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	for _, name := range machine.Names() {
		if _, err := c.Compile(context.Background(), &serve.CompileRequest{
			Source: apps.EM3D().Source(8, 1), Procs: 8, Machine: name,
		}); err != nil {
			t.Errorf("machine %s: %v", name, err)
		}
	}
}

type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func asAPIError(err error, target **client.APIError) bool {
	return errors.As(err, target)
}
