package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// workload is one set of inputs and the op that runs them. Every workload
// is a closed loop: each client goroutine issues its next op only after
// the previous one returned.
type workload interface {
	// clients is the number of client goroutines (and, for serve-mix,
	// connections). It never exceeds the sandbox's two CPUs.
	clients() int
	// tail is the percentile op_tail_ms reports: the highest with at least
	// ten samples beyond it at the benchmark's run length.
	tail() float64
	// setUp builds the inputs from seed, primes whatever stays warm for the
	// whole run, and runs one untimed warm-up op. It is called once on a
	// fresh workload.
	setUp(seed int64) error
	// start puts the workload in the state a timed phase begins from, so
	// that op i of client tid is the same work in every phase: serve-mix
	// starts a fresh server and primes its cache, the others keep no state
	// between ops. A non-nil lt asks for the traced variant. Set-up time is
	// setUp plus the first start.
	start(lt *layerTrace) error
	// op runs op i of client tid and checks its output against the known
	// answer; an error is a failed op. class labels the op for per-class
	// latencies. With a non-nil lt the op records spans and layer values.
	op(tid, i int, lt *layerTrace) (class string, err error)
	// probe is the traced run's extra pass, made right after the traced
	// phase: it re-drives inputs through the layers one by one to split an
	// op's time into layer time.
	probe(lt *layerTrace) error
	// report adds the workload's own metrics and exact counts.
	report(r *result, sp *spec, ph *phase, lt *layerTrace)
	// shutDown stops whatever start started and waits for it.
	shutDown()
}

// workloads is the registry, in BENCHMARK.json order.
var workloads = []struct {
	name string
	make func() workload
}{
	{"serve-mix", func() workload { return &serveMix{} }},
	{"compile-2k", func() workload { return &compile2k{} }},
	{"simulate-apps", func() workload { return &simulateApps{} }},
	{"verify-mix", func() workload { return &verifyMix{} }},
}

// newWorkload makes a fresh workload; name is one of the registry's.
func newWorkload(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.make()
		}
	}
	panic("benchmark: BENCHMARK.json names a workload the benchmark does not have: " + name)
}

// runConfig sizes one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// setUps is how many times set-up runs; setup_s is the median.
	setUps int
	// maxOps caps the ops of each client; 0 runs until the deadline. The
	// smoke test uses it to run at tiny counts.
	maxOps int
	// traceOut, when set, receives the traced run's spans as Chrome
	// trace-event JSON.
	traceOut string
}

// sample is one op of a timed phase: its latency as measured, and divided
// by the host's slowdown over the op's slice (hostref.go).
type sample struct {
	raw, ms float64
	class   string
	ok      bool
}

// phase is the record of one timed phase. A phase is a run of slices, each
// between two readings of the host reference; wall and hostWall add up the
// slices and leave the readings out.
type phase struct {
	// wall is the time the slices took on the quiet reference host — each
	// slice's time divided by its slowdown — and hostWall as measured.
	wall, hostWall time.Duration
	samples        []sample
	// perClient[tid] is how many ops client tid ran, so the traced phase
	// can repeat exactly those.
	perClient []int
	// slowdown is the median over the slices.
	slowdown  float64
	heapSysMB float64
	allocMB   float64
	cpuS      float64
	gcShare   float64
}

// latencies are the normalized latencies of the ops of a class that passed
// their checks; "" is every class.
func (ph *phase) latencies(class string) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.ok && (class == "" || s.class == class) {
			out = append(out, s.ms)
		}
	}
	return out
}

// hostLatencies are the latencies as measured.
func (ph *phase) hostLatencies() []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.ok {
			out = append(out, s.raw)
		}
	}
	return out
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPU returns the runtime's estimate of GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// sliceLen is how long the clients run between two readings of the host
// reference: short enough that the host's speed holds over a slice, long
// enough that the readings take under a tenth of the phase.
const sliceLen = 500 * time.Millisecond

// timed runs the workload's closed loop: every client issues ops until the
// deadline, or — when limit is set — exactly limit[tid] ops. The loop runs
// in slices; between two slices the clients rest and the host reference is
// read. A client ends a slice after the first op that outlasts it, so a
// slice holds at least one op of each client. A failed op is named on
// standard error.
func timed(w workload, name string, d time.Duration, limit []int, lt *layerTrace) *phase {
	n := w.clients()
	ph := &phase{perClient: make([]int, n)}
	perClient := make([][]sample, n)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	gc0, tot0 := gcCPU()
	deadline := time.Now().Add(d)
	over := func(tid int) bool {
		if limit != nil {
			return len(perClient[tid]) >= limit[tid]
		}
		return !time.Now().Before(deadline)
	}
	anyLeft := func() bool {
		for tid := 0; tid < n; tid++ {
			if !over(tid) {
				return true
			}
		}
		return false
	}

	var slowdowns []float64
	refCPU := 0.0
	readRef := func() float64 {
		c0 := cpuSeconds()
		r := hostRef()
		refCPU += cpuSeconds() - c0
		return r
	}
	before := readRef()
	for anyLeft() {
		from := make([]int, n)
		for tid := range from {
			from[tid] = len(perClient[tid])
		}
		start := time.Now()
		sliceEnd := start.Add(sliceLen)
		var wg sync.WaitGroup
		for tid := 0; tid < n; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for !over(tid) {
					i := len(perClient[tid])
					t0 := time.Now()
					class, err := w.op(tid, i, lt)
					lat := ms(time.Since(t0))
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchmark: %s: client %d op %d failed: %v\n", name, tid, i, err)
					}
					perClient[tid] = append(perClient[tid], sample{raw: lat, class: class, ok: err == nil})
					if !time.Now().Before(sliceEnd) {
						return
					}
				}
			}(tid)
		}
		wg.Wait()
		wall := time.Since(start)
		after := readRef()
		slow := slowdown(before, after)
		before = after
		slowdowns = append(slowdowns, slow)
		ph.hostWall += wall
		ph.wall += time.Duration(float64(wall) / slow)
		for tid := range from {
			for i := from[tid]; i < len(perClient[tid]); i++ {
				perClient[tid][i].ms = perClient[tid][i].raw / slow
			}
		}
	}

	runtime.ReadMemStats(&m1)
	gc1, tot1 := gcCPU()
	ph.cpuS = cpuSeconds() - cpu0 - refCPU
	if tot1 > tot0 {
		ph.gcShare = (gc1 - gc0) / (tot1 - tot0)
	}
	ph.slowdown = median(slowdowns)
	ph.heapSysMB = float64(m1.HeapSys) / 1e6
	ph.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	for tid, s := range perClient {
		ph.perClient[tid] = len(s)
		ph.samples = append(ph.samples, s...)
	}
	return ph
}

// runWorkload is one run of one workload: the end-to-end metrics with
// tracing off, or the per-layer metrics of the traced run.
func runWorkload(sp *spec, cfg runConfig) (*result, error) {
	if !sp.hasWorkload(cfg.workload) {
		return nil, fmt.Errorf("BENCHMARK.json has no workload %q", cfg.workload)
	}
	// Set-up runs several times, each on a fresh workload, and the run
	// reports the median; the last one is the workload the run measures.
	// Like a slice of a timed phase, each set-up sits between two readings
	// of the host reference.
	var w workload
	defer func() { w.shutDown() }()
	var setUps, hostSetUps []float64
	before := hostRef()
	for i := 0; i < max(cfg.setUps, 1); i++ {
		if w != nil {
			w.shutDown()
		}
		w = newWorkload(cfg.workload)
		t0 := time.Now()
		if err := w.setUp(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		if err := w.start(nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		took := time.Since(t0).Seconds()
		after := hostRef()
		hostSetUps = append(hostSetUps, took)
		setUps = append(setUps, took/slowdown(before, after))
		before = after
	}
	r := &result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		TailPercentile: w.tail(), Metrics: map[string]metric{}}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var limit []int
	if cfg.maxOps > 0 {
		limit = make([]int, w.clients())
		for i := range limit {
			limit[i] = cfg.maxOps
		}
	}

	if !cfg.traced {
		ph := timed(w, cfg.workload, d, limit, nil)
		r.setSpec(sp, "setup_s", median(setUps))
		r.setSpec(sp, "host.setup_s", median(hostSetUps))
		endToEnd(r, sp, ph, w.tail())
		w.report(r, sp, ph, nil)
		r.verdict(sp)
		return r, nil
	}

	// The traced run times the same ops three times — tracing off, on, and
	// off again, so that slow drift of the machine cancels out of the
	// tracing overhead — and probes the layers one by one right after the
	// traced phase.
	plain := timed(w, cfg.workload, d*3/10, limit, nil)
	lt := newLayerTrace()
	if err := w.start(lt); err != nil {
		return nil, fmt.Errorf("%s: traced phase: %w", cfg.workload, err)
	}
	traced := timed(w, cfg.workload, 0, plain.perClient, lt)
	if err := w.probe(lt); err != nil {
		return nil, fmt.Errorf("%s: layer probe: %w", cfg.workload, err)
	}
	if err := w.start(nil); err != nil {
		return nil, fmt.Errorf("%s: third phase: %w", cfg.workload, err)
	}
	again := timed(w, cfg.workload, 0, plain.perClient, nil)
	plainWall := (plain.wall + again.wall).Seconds() / 2

	r.Attempted = len(traced.samples)
	r.Failed = traced.failed()
	r.Samples = len(plain.latencies(""))
	for name, v := range lt.vals {
		r.setSpec(sp, name, median(v))
	}
	ops := float64(len(plain.samples))
	r.setSpec(sp, "total.cpu_s_per_op", plain.cpuS/ops)
	r.setSpec(sp, "total.gc_cpu_share", plain.gcShare)
	r.setSpec(sp, "trace.overhead_pct", (traced.wall.Seconds()/plainWall-1)*100)
	w.report(r, sp, plain, lt)
	for _, msg := range lt.failed {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", cfg.workload, msg)
	}
	r.Failed += len(lt.failed)
	r.verdict(sp)
	r.setSpec(sp, "op_tail_ms", percentile(plain.latencies(""), w.tail()))
	r.setSpec(sp, "peak_heap_mb", traced.heapSysMB)
	r.setSpec(sp, "host.setup_s", median(hostSetUps))
	asMeasured(r, sp, plain)
	if cfg.traceOut != "" {
		if err := lt.tr.writeChrome(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// endToEnd fills the metrics every workload reports with tracing off.
// Timings are normalized to the quiet reference host (hostref.go).
func endToEnd(r *result, sp *spec, ph *phase, tail float64) {
	r.Attempted = len(ph.samples)
	r.Failed = ph.failed()
	lat := ph.latencies("")
	r.Samples = len(lat)
	r.setSpec(sp, "ops_per_s", float64(len(lat))/ph.wall.Seconds())
	r.setSpec(sp, "op_p50_ms", median(lat))
	r.setSpec(sp, "op_tail_ms", percentile(lat, tail))
	r.setSpec(sp, "peak_heap_mb", ph.heapSysMB)
	r.setSpec(sp, "alloc_mb_per_op", ph.allocMB/float64(r.Attempted))
	asMeasured(r, sp, ph)
}

// asMeasured reports what normalizing hides: how much slower than the
// quiet reference box the host ran, and the headline timings as the clock
// read them.
func asMeasured(r *result, sp *spec, ph *phase) {
	lat := ph.hostLatencies()
	r.setSpec(sp, "host.slowdown", ph.slowdown)
	r.setSpec(sp, "host.ops_per_s", float64(len(lat))/ph.hostWall.Seconds())
	r.setSpec(sp, "host.op_p50_ms", median(lat))
}
