package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/progen"
)

// gateStore is a MemStore whose Put can be held, which keeps a singleflight
// leader in flight for as long as a test needs a follower to join it.
type gateStore struct {
	Store
	hold chan struct{} // nil: Put goes straight through
}

func (g *gateStore) Put(id string, body []byte) error {
	if g.hold != nil {
		<-g.hold
	}
	return g.Store.Put(id, body)
}

// waitFollowers returns once key id has a leader with n followers waiting.
func waitFollowers(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		s.flight.mu.Lock()
		c := s.flight.m[id]
		joined := c != nil && c.dups >= n
		s.flight.mu.Unlock()
		if joined {
			return
		}
	}
	t.Fatalf("no leader with %d followers on %s", n, id)
}

func post(s *Server, route, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/"+route, strings.NewReader(body)))
	return rec
}

// typedEncoding is the oracle: the bytes json.NewEncoder writes for the
// route's typed response built from env and the stored artifact decoded
// into the route's result type — what the server sent before it spliced.
func typedEncoding(t *testing.T, route string, env Envelope, artifact []byte) (wire []byte, typed any) {
	t.Helper()
	unmarshal := func(into any) {
		if err := json.Unmarshal(artifact, into); err != nil {
			t.Fatalf("%s: stored artifact does not decode: %v", route, err)
		}
	}
	switch route {
	case "compile":
		resp := &CompileResponse{Envelope: env}
		unmarshal(&resp.CompileResult)
		typed = resp
	case "analyze":
		resp := &AnalyzeResponse{Envelope: env}
		unmarshal(&resp.AnalyzeResult)
		typed = resp
	case "verify":
		resp := &VerifyResponse{Envelope: env}
		unmarshal(&resp.VerifyResult)
		typed = resp
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(typed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), typed
}

// TestSplicedEqualsTypedEncoding holds the spliced response to the typed
// encoding, byte for byte, on the five kernels and 40 generated programs ×
// three routes × {miss, singleflight follower, hit}. The envelope the oracle
// encodes is the one the disposition dictates (key from the request, cached
// and dedup from the scenario); only elapsed_ms is read back from the
// response, and it goes through encoding/json again, so a dropped, moved or
// re-formatted envelope field shows as a byte difference.
func TestSplicedEqualsTypedEncoding(t *testing.T) {
	type program struct {
		name, src string
		procs     int
		det       bool // one schedule-independent answer: verify needs no SC outcome set
	}
	var programs []program
	for _, k := range apps.All() {
		programs = append(programs, program{k.Name, k.Source(4, 1), 4, true})
	}
	for seed := int64(0); seed < 40; seed++ {
		programs = append(programs, program{fmt.Sprintf("progen%d", seed), progen.Generate(seed, progen.Options{Procs: 2}), 2, false})
	}
	programs = append(programs, program{"html", `shared int A[8];
func main() {
    if (MYPROC < 3 && MYPROC > 0) { A[MYPROC] = 1; }
    barrier;
}`, 4, true})

	store := &gateStore{Store: NewMemStore(0)}
	s := New(Config{Store: store, DefaultTimeout: 2 * time.Minute})
	defer s.Close()
	for _, p := range programs {
		creq := &CompileRequest{Source: p.src, Procs: p.procs}
		areq := &AnalyzeRequest{Source: p.src, Procs: p.procs}
		vreq := &VerifyRequest{Source: p.src, Procs: p.procs, Schedules: 2, Levels: []string{"oneway"}, Deterministic: p.det}
		_, ckey, _ := normalizeCompile(creq)
		_, akey, _ := normalizeAnalyze(areq)
		_, vkey, _ := normalizeVerify(vreq)
		for _, c := range []struct {
			route string
			req   any
			key   Key
		}{{"compile", creq, ckey}, {"analyze", areq, akey}, {"verify", vreq, vkey}} {
			route, id, name := c.route, c.key.ID(), p.name+"/"+c.route
			reqBody, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			body := string(reqBody)

			// A leader held in its store write, a follower that joins it,
			// then a hit.
			before := store.Len()
			store.hold = make(chan struct{})
			var leader, follower *httptest.ResponseRecorder
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); leader = post(s, route, body) }()
			waitFollowers(t, s, id, 0)
			go func() { defer wg.Done(); follower = post(s, route, body) }()
			waitFollowers(t, s, id, 1)
			close(store.hold)
			wg.Wait()
			store.hold = nil
			hit := post(s, route, body)

			artifact, ok, err := store.Get(id)
			if err != nil || !ok || store.Len() != before+1 {
				t.Fatalf("%s: artifact not stored under %s (ok=%v err=%v len %d -> %d)", name, id, ok, err, before, store.Len())
			}
			for _, d := range []struct {
				disposition string
				rec         *httptest.ResponseRecorder
				env         Envelope
			}{
				{"miss", leader, Envelope{Key: id}},
				{"follower", follower, Envelope{Key: id, Dedup: true}},
				{"hit", hit, Envelope{Key: id, Cached: true}},
			} {
				got := d.rec.Body.Bytes()
				if d.rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", name, d.disposition, d.rec.Code, got)
				}
				if cl := d.rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(got)) {
					t.Errorf("%s %s: Content-Length %q on a body of %d bytes", name, d.disposition, cl, len(got))
				}
				var sent Envelope
				if err := json.Unmarshal(got, &sent); err != nil {
					t.Fatalf("%s %s: response does not decode: %v", name, d.disposition, err)
				}
				d.env.ElapsedMs = sent.ElapsedMs
				want, typed := typedEncoding(t, route, d.env, artifact)
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s %s: spliced response differs from the typed encoding at byte %d\n got: %.120s\nwant: %.120s",
						name, d.disposition, i, got[max(i-60, 0):], want[max(i-60, 0):])
				}
				// What client.Client does with the bytes.
				decoded := reflect.New(reflect.TypeOf(typed).Elem()).Interface()
				if err := json.Unmarshal(got, decoded); err != nil || !reflect.DeepEqual(decoded, typed) {
					t.Fatalf("%s %s: response decodes to %+v (err %v), want %+v", name, d.disposition, decoded, err, typed)
				}
			}
			if p.name == "html" && route == "compile" {
				// Both encoders escape these for HTML, and the target text
				// carries the comparisons and the conjunction through.
				var resp CompileResponse
				if err := json.Unmarshal(hit.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				for raw, esc := range map[string]string{"<": `\u003c`, ">": `\u003e`, "&": `\u0026`} {
					if !strings.Contains(resp.Target, raw) || !bytes.Contains(hit.Body.Bytes(), []byte(esc)) {
						t.Errorf("html program: target carries %q: %v, wire carries %s: %v", raw,
							strings.Contains(resp.Target, raw), esc, bytes.Contains(hit.Body.Bytes(), []byte(esc)))
					}
				}
			}
		}
	}
	if st := s.Stats(); st.DedupHits != int64(3*len(programs)) || st.CacheHits != int64(3*len(programs)) {
		t.Errorf("stats: %d dedups, %d hits, want %d each", st.DedupHits, st.CacheHits, 3*len(programs))
	}
}

// TestResultFieldsAvoidEnvelope keeps the splice sound by construction: the
// envelope and the result are encoded apart and concatenated, so a result
// field named like an envelope field would appear twice on the wire (and
// encoding/json would drop both from the typed response).
func TestResultFieldsAvoidEnvelope(t *testing.T) {
	var names func(t reflect.Type) []string
	names = func(rt reflect.Type) []string {
		var out []string
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			switch {
			case f.Anonymous && tag == "" && f.Type.Kind() == reflect.Struct:
				out = append(out, names(f.Type)...)
			case tag == "":
				out = append(out, f.Name)
			case tag != "-":
				out = append(out, tag)
			}
		}
		return out
	}
	envelope := map[string]bool{}
	for _, n := range names(reflect.TypeOf(Envelope{})) {
		envelope[strings.ToLower(n)] = true
	}
	if len(envelope) != 4 {
		t.Fatalf("envelope fields %v, want 4", envelope)
	}
	for _, res := range []any{CompileResult{}, AnalyzeResult{}, VerifyResult{}} {
		for _, n := range names(reflect.TypeOf(res)) {
			// encoding/json matches names case-insensitively on decode.
			if envelope[strings.ToLower(n)] {
				t.Errorf("%T has a field named %q, which the envelope owns", res, n)
			}
		}
	}
}

// TestPanicContained pins what a panic on a pool worker costs: that request
// and the follower waiting on it answer 500 and log the stack under
// "cache":"panic", nothing is stored, and the server serves the next
// request for the same key normally.
func TestPanicContained(t *testing.T) {
	var logged bytes.Buffer // read only between requests; the logger serializes writes
	s := New(Config{Logger: log.New(&logged, "", 0)})
	defer s.Close()
	var boom atomic.Bool
	release := make(chan struct{})
	handle := func(w http.ResponseWriter, r *http.Request) {
		handleCached(s, w, r, "compile",
			func(req *CompileRequest) (Key, int, func(context.Context) (*CompileResult, error), error) {
				_, key, err := normalizeCompile(req)
				return key, req.TimeoutMs, func(context.Context) (*CompileResult, error) {
					if boom.Load() {
						<-release
						panic("boom")
					}
					return &CompileResult{Target: "fine"}, nil
				}, err
			})
	}
	do := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handle(rec, httptest.NewRequest("POST", "/v1/compile", strings.NewReader(`{"source":"x","procs":2}`)))
		return rec
	}
	_, key, _ := normalizeCompile(&CompileRequest{Source: "x", Procs: 2})

	boom.Store(true)
	recs := make([]*httptest.ResponseRecorder, 2)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() { defer wg.Done(); recs[i] = do() }()
	}
	waitFollowers(t, s, key.ID(), 1)
	close(release)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "boom") {
			t.Errorf("request %d: status %d body %s, want a 500 naming the panic", i, rec.Code, rec.Body)
		}
	}
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want one per request: %q", len(lines), logged.String())
	}
	for _, line := range lines {
		var entry struct {
			Cache, Stack string
			Status       int
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if entry.Cache != "panic" || entry.Status != 500 || !strings.Contains(entry.Stack, "TestPanicContained") {
			t.Errorf("log line %q: want cache panic, status 500 and the panicking frame in stack", line)
		}
	}
	if st := s.Stats(); st.Panics != 1 || st.Errors != 2 || st.StoreLen != 0 || s.flight.inflight() != 0 {
		t.Errorf("after the panic: %+v, %d keys in flight; want 1 panic, 2 errors, nothing stored or in flight", st, s.flight.inflight())
	}

	boom.Store(false)
	for i, wantCached := range []bool{false, true} {
		var resp CompileResponse
		rec := do()
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Target != "fine" || resp.Cached != wantCached {
			t.Errorf("request %d after the panic: status %d body %s (err %v), want 200 cached=%v", i, rec.Code, rec.Body, err, wantCached)
		}
	}
}
