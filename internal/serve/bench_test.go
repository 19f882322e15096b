package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

func benchServer(b *testing.B) (*serve.Server, *client.Client) {
	b.Helper()
	s := serve.New(serve.Config{})
	hs := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, client.New(hs.URL, client.WithHTTPClient(hs.Client()))
}

// heavySource is the benchmark compile workload: a generated program big
// enough (hundreds of shared accesses) that compilation dominates HTTP
// overhead, making the cold/hot ratio meaningful.
func heavySource() string {
	return progen.Generate(7, progen.Options{
		Procs: 8, MaxPhases: 20, MaxStmts: 16, MaxDepth: 4, Arrays: 6, Scalars: 6,
	})
}

// BenchmarkServeCompileCold measures end-to-end cold-cache compile latency
// over HTTP: every iteration varies the source (a trailing comment changes
// the fingerprint, not the program), so every request computes.
func BenchmarkServeCompileCold(b *testing.B) {
	_, c := benchServer(b)
	src := heavySource()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Compile(ctx, &serve.CompileRequest{
			Source: fmt.Sprintf("%s\n// cold %d\n", src, i),
			Procs:  8, Level: "oneway",
		})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("cold iteration was served from cache")
		}
	}
}

// BenchmarkServeCompileHot measures the cache-hit path for the identical
// request: one priming compile, then every iteration must hit.
func BenchmarkServeCompileHot(b *testing.B) {
	_, c := benchServer(b)
	req := &serve.CompileRequest{Source: heavySource(), Procs: 8, Level: "oneway"}
	ctx := context.Background()
	if _, err := c.Compile(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Compile(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("hot iteration missed the cache")
		}
	}
}

// BenchmarkServeThroughput measures sustained mixed-workload throughput:
// parallel clients cycling through the load mix (apps + generated
// programs), mostly cache hits after the first lap — the steady state a
// long-running daemon serves.
func BenchmarkServeThroughput(b *testing.B) {
	_, c := benchServer(b)
	mix := serve.LoadMix(8, 8)
	ctx := context.Background()
	// Prime one lap so the steady state under measurement is hit-dominated.
	for _, p := range mix {
		if _, err := c.Compile(ctx, &serve.CompileRequest{
			Source: p.Source, Procs: 8, Level: "oneway",
		}); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := mix[int(next.Add(1))%len(mix)]
			if _, err := c.Compile(ctx, &serve.CompileRequest{
				Source: p.Source, Procs: 8, Level: "oneway",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeHitHandler measures the cache-hit path inside the server
// alone — request decode, key, store get, splice, write — on a recorder:
// no socket, no client, so allocs/op is the handler's own and stable.
func BenchmarkServeHitHandler(b *testing.B) {
	s := serve.New(serve.Config{})
	b.Cleanup(s.Close)
	req, err := json.Marshal(&serve.CompileRequest{Source: heavySource(), Procs: 8, Level: "oneway"})
	if err != nil {
		b.Fatal(err)
	}
	body := string(req)
	if rec := post(s, "compile", body); rec.Code != http.StatusOK {
		b.Fatalf("priming compile: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(s, "compile", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.CacheHits != int64(b.N) {
		b.Fatalf("%d hits in %d iterations", st.CacheHits, b.N)
	}
}
