package serve_test

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/progen"
	"repro/internal/serve"
)

// lineCounter counts the lines a logger writes and keeps none of them.
type lineCounter struct{ lines atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines.Add(int64(bytes.Count(p, []byte("\n"))))
	return len(p), nil
}

// FuzzServeRequest posts arbitrary bytes to each cacheable route. Whatever
// they are, the server answers 200 (a valid request), 400 (the decoder or
// the validation refused it), 422 (the pipeline refused the program) or 504
// (it outran its deadline) — never 500 and never a panic — and logs exactly
// one line. The one thing the harness withholds is a machine size above 64:
// nothing bounds a request's memory yet (ROADMAP item 4), and a verify at
// procs = 10⁹ dies in the allocator, which no handler can contain.
func FuzzServeRequest(f *testing.F) {
	for _, body := range []string{
		`{`, `{"source":"x","procs":0}`, `{"source":"x","procs":8,"level":"turbo"}`,
		`{"source":"x","procs":8,"levels":["turbo"]}`, `{"source":"x","procs":8,"machine":"cray-3"}`,
	} {
		f.Add([]byte(body))
	}
	for _, req := range []any{
		&serve.CompileRequest{Source: apps.EM3D().Source(4, 1), Procs: 4, Level: "pipelined", CSE: true, TimeoutMs: 400},
		&serve.AnalyzeRequest{Source: progen.Generate(3, progen.Options{Procs: 2}), Procs: 2},
		&serve.VerifyRequest{Source: progen.Generate(5, progen.Options{Procs: 2}), Procs: 2, Schedules: 2, Levels: []string{"oneway"}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	var logged lineCounter
	s := serve.New(serve.Config{
		Logger:          log.New(&logged, "", 0),
		MaxRequestBytes: 64 << 10,
		DefaultTimeout:  500 * time.Millisecond,
		MaxTimeout:      500 * time.Millisecond,
	})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var size struct {
			Procs float64 `json:"procs"`
		}
		if json.Unmarshal(body, &size) == nil && size.Procs > 64 {
			t.Skip("machine size above the harness bound")
		}
		for _, route := range []string{"compile", "analyze", "verify"} {
			before := logged.lines.Load()
			rec := post(s, route, string(body))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusGatewayTimeout:
			default:
				t.Errorf("%s: status %d: %s", route, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Errorf("%s: status %d with a body that is not JSON: %q", route, rec.Code, rec.Body)
			}
			if n := logged.lines.Load() - before; n != 1 {
				t.Errorf("%s: status %d logged %d lines, want exactly one", route, rec.Code, n)
			}
		}
	})
}
