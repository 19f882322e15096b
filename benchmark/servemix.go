package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"regexp"
	"sync"
	"time"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// Request classes and routes of the serve-mix stream.
const (
	classHit  = "hit"
	classMiss = "miss"
	classEdit = "edit"
)

const (
	routeCompile = iota
	routeAnalyze
	routeVerify
)

// Every request compiles for the one-way level with communication
// elimination; the mix's programs are written for 8 processors, the
// verified ones for 2 and the edit sessions' for 4.
const (
	mixProcs    = 8
	verifyProcs = 2
	editProcs   = 4
	serveLevel  = "oneway"
)

// editBase are the generation options of an edit session's program: a few
// hundred accesses, so that an edit costs what a real re-analysis costs.
var editBase = progen.Options{Procs: editProcs, MaxPhases: 12, MaxStmts: 48, Arrays: 4, Scalars: 4, Events: 3, Locks: 2}

// litAssign finds the single-digit literals a statement stores, the edit
// syncanal's incremental tests make: it changes the program text and no
// analysis input.
var litAssign = regexp.MustCompile(`= (\d) *;`)

// primed is one program whose artifacts set-up put in the server's cache,
// with the delay-set size a direct compile gives.
type primed struct {
	src        string
	procs      int
	delayPairs int
}

// request is one op of a client's stream.
type request struct {
	class string
	route int
	src   string
	procs int
	// delayPairs is the known answer, or -1 for a fresh generated program,
	// which is checked against a direct compile after the timed phase.
	delayPairs int
}

// serveClient is one closed-loop client: its own connection, its own
// seeded stream, and its own edit session.
type serveClient struct {
	api   *client.Client
	idle  *http.Transport
	rng   *rand.Rand
	fresh int64 // next never-seen generator seed
	// The edit session: the current text, where its literals are, and how
	// many edits it has made.
	edit      []byte
	literals  []int
	edits     int
	editPairs int
	// unchecked are the first postCheckCap fresh generated programs the
	// timed phase served, with the delay-set size the server answered.
	unchecked []served
}

type served struct {
	req   request
	pairs int
	op    int
}

// serveMix drives an in-process pscd over HTTP: 75% repeats of primed
// keys, 20% never-seen programs, 5% edits of a session's program, each
// split over the compile, analyze and verify routes.
type serveMix struct {
	seed     int64
	srv      *serve.Server
	http     *http.Server
	served   chan error
	store    *timedStore
	mix      []primed // compile and analyze keys
	verified []primed // verify keys
	kernels  []primed // app kernels, for comment-suffixed misses
	conns    []*serveClient
	// What the traced phase leaves for the probe and the report: spans maps
	// a miss-compile source to the client-side span of its request, so the
	// probe can set a direct compile against it; stats are the server's
	// counters at the end of the phase.
	mu    sync.Mutex
	spans map[string]time.Duration
	stats serve.StatsResponse
}

func (w *serveMix) clients() int { return 2 }

// tail: some 24000 requests fit a 20 s run, so p99 has 240 beyond it.
func (w *serveMix) tail() float64 { return 99 }

// direct compiles src the way the server would and returns |D|.
func direct(src string, procs int) (int, error) {
	p, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: splitc.LevelOneWay, CSE: true})
	if err != nil {
		return 0, err
	}
	return p.Analysis.D.Size(), nil
}

// setUp builds the inputs: the standard load mix with each program's
// directly compiled delay-set size, and the verified programs. The streams
// and edit sessions belong to a phase and are made in start.
func (w *serveMix) setUp(seed int64) error {
	w.seed = seed
	for i, lp := range serve.LoadMix(mixProcs, 16) {
		pairs, err := direct(lp.Source, mixProcs)
		if err != nil {
			return fmt.Errorf("%s: %w", lp.Name, err)
		}
		p := primed{src: lp.Source, procs: mixProcs, delayPairs: pairs}
		w.mix = append(w.mix, p)
		if i < len(apps.All()) {
			w.kernels = append(w.kernels, p)
		}
	}
	for s := int64(0); s < 16; s++ {
		w.verified = append(w.verified, primed{src: progen.Generate(s, progen.Options{Procs: verifyProcs}), procs: verifyProcs})
	}
	return nil
}

// start brings up a fresh server with its defaults on a loopback listener,
// connects the clients, primes every key the hit class will ask for, and
// warms the connections.
func (w *serveMix) start(lt *layerTrace) error {
	w.shutDown()
	cfg := serve.Config{}
	if lt != nil {
		w.store = &timedStore{Store: serve.NewMemStore(0)}
		cfg.Store = w.store
		w.spans = map[string]time.Duration{}
	}
	ln, dial := listen()
	w.srv = serve.New(cfg)
	hs, served := &http.Server{Handler: w.srv.Handler()}, make(chan error, 1)
	w.http, w.served = hs, served
	go func() { served <- hs.Serve(ln) }()

	w.conns = nil
	for tid := 0; tid < w.clients(); tid++ {
		c, err := newStream(w.seed, tid)
		if err != nil {
			return err
		}
		c.idle = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DialContext: dial}
		c.api = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: c.idle}))
		w.conns = append(w.conns, c)
	}

	c0 := w.conns[0]
	for _, p := range w.mix {
		for _, route := range []int{routeCompile, routeAnalyze} {
			if _, err := w.send(c0, request{class: classMiss, route: route, src: p.src, procs: p.procs, delayPairs: p.delayPairs}); err != nil {
				return fmt.Errorf("priming: %w", err)
			}
		}
	}
	for _, p := range w.verified {
		if _, err := w.send(c0, request{class: classMiss, route: routeVerify, src: p.src, procs: p.procs}); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	for _, c := range w.conns {
		for i := 0; i < 50; i++ {
			p := w.mix[i%len(w.mix)]
			if _, err := w.send(c, request{class: classHit, route: routeCompile, src: p.src, procs: p.procs, delayPairs: p.delayPairs}); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// dialFunc is an http.Transport's DialContext.
type dialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// listen opens the server's listener and returns how a client connects to
// it: TCP on the loopback interface, dialled the default way (a nil
// dialFunc). A sandbox whose network namespace has no loopback interface
// lets the bind succeed and refuses every connect, so listen dials once;
// when the bind or the dial fails it falls back to connections made in
// memory, which need neither network nor file system, and says so on
// standard error.
func listen() (net.Listener, dialFunc) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		var c net.Conn
		if c, err = net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second); err == nil {
			c.Close() // the server reads end-of-file on it and drops it
			return ln, nil
		}
		ln.Close()
	}
	noLoopback.Do(func() {
		fmt.Fprintf(os.Stderr, "benchmark: serve-mix: no TCP loopback here (%v); client and server talk over in-memory connections\n", err)
	})
	pl := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	return pl, pl.dial
}

var noLoopback sync.Once

// pipeListener is a net.Listener whose connections are net.Pipe pairs.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pscd.in-memory" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// newStream is client tid's request stream for seed, not yet connected:
// its random source, its reserve of never-seen generator seeds, and its
// edit session's base program (generator seeds 2 and 3).
func newStream(seed int64, tid int) (*serveClient, error) {
	c := &serveClient{
		rng:   rand.New(rand.NewSource(seed*1000 + int64(tid))),
		fresh: 1<<32 + int64(tid)<<40 + seed<<16,
		edit:  []byte(progen.Generate(int64(2+tid), editBase)),
	}
	// Declarations are skipped, as syncanal's tests skip them: an
	// initializer never reaches the IR body.
	for at := 0; at < len(c.edit); {
		end := at + bytes.IndexByte(c.edit[at:], '\n') + 1
		if end == at {
			end = len(c.edit)
		}
		line := c.edit[at:end]
		decl := bytes.TrimSpace(line)
		if m := litAssign.FindIndex(line); m != nil && !bytes.HasPrefix(decl, []byte("shared")) && !bytes.HasPrefix(decl, []byte("local")) {
			c.literals = append(c.literals, at+m[0]+2)
		}
		at = end
	}
	if len(c.literals) == 0 {
		return nil, fmt.Errorf("edit session %d: no literal to edit", tid)
	}
	var err error
	c.editPairs, err = direct(string(c.edit), editProcs)
	return c, err
}

// next draws the client's next request from its seeded stream.
func (w *serveMix) next(c *serveClient) request {
	route := routeCompile
	if r := c.rng.Float64(); r >= 0.95 {
		route = routeVerify
	} else if r >= 0.80 {
		route = routeAnalyze
	}
	switch r := c.rng.Float64(); {
	case r < 0.75:
		if route == routeVerify {
			p := w.verified[c.rng.Intn(len(w.verified))]
			return request{class: classHit, route: route, src: p.src, procs: p.procs}
		}
		p := w.mix[c.rng.Intn(len(w.mix))]
		return request{class: classHit, route: route, src: p.src, procs: p.procs, delayPairs: p.delayPairs}
	case r < 0.95:
		c.fresh++
		// The trailing comment makes the fingerprint new even when the
		// generator repeats a small program.
		unique := func(src string) string { return fmt.Sprintf("%s\n// request %d\n", src, c.fresh) }
		if route == routeVerify {
			return request{class: classMiss, route: route, src: unique(progen.Generate(c.fresh, progen.Options{Procs: verifyProcs})), procs: verifyProcs}
		}
		if c.rng.Intn(2) == 0 {
			k := w.kernels[c.rng.Intn(len(w.kernels))]
			return request{class: classMiss, route: route, src: unique(k.src), procs: k.procs, delayPairs: k.delayPairs}
		}
		return request{class: classMiss, route: route, src: unique(progen.Generate(c.fresh, progen.Options{Procs: mixProcs})),
			procs: mixProcs, delayPairs: -1}
	default:
		// One literal of the session's program bumped: a changed text whose
		// analysis inputs are the base program's. Edit k bumps literal t,
		// 10^t being the highest power of ten that divides k: the walk of a
		// base-10 Gray code, which never returns to a text it has produced.
		c.edits++
		t := 0
		for k := c.edits; k%10 == 0; k /= 10 {
			t++
		}
		at := c.literals[t]
		c.edit[at] = '0' + (c.edit[at]-'0'+1)%10
		return request{class: classEdit, route: routeCompile, src: string(c.edit), procs: editProcs, delayPairs: c.editPairs}
	}
}

// send issues one request and checks the answer: the cache flag the class
// expects, and the known delay-set size or verdict. It returns the
// delay-set size the server answered.
func (w *serveMix) send(c *serveClient, q request) (int, error) {
	ctx := context.Background()
	var cached bool
	pairs := -1
	switch q.route {
	case routeCompile:
		resp, err := c.api.Compile(ctx, &serve.CompileRequest{Source: q.src, Procs: q.procs, Level: serveLevel, CSE: true})
		if err != nil {
			return 0, err
		}
		cached, pairs = resp.Cached, resp.DelayPairs
		if resp.Target == "" {
			return 0, fmt.Errorf("compile answered no target code")
		}
	case routeAnalyze:
		resp, err := c.api.Analyze(ctx, &serve.AnalyzeRequest{Source: q.src, Procs: q.procs, Level: serveLevel})
		if err != nil {
			return 0, err
		}
		cached, pairs = resp.Cached, resp.DelayPairs
	case routeVerify:
		resp, err := c.api.Verify(ctx, &serve.VerifyRequest{Source: q.src, Procs: q.procs, Schedules: 4, CSE: true})
		if err != nil {
			return 0, err
		}
		cached = resp.Cached
		if !resp.OK {
			return 0, fmt.Errorf("verify flagged a correctly compiled program: %s", resp.Summary)
		}
	}
	if want := q.class == classHit; cached != want {
		return 0, fmt.Errorf("%s request answered cached=%v", q.class, cached)
	}
	if q.route != routeVerify && q.delayPairs >= 0 && pairs != q.delayPairs {
		return 0, fmt.Errorf("%s request answered %d delay pairs, a direct compile gives %d", q.class, pairs, q.delayPairs)
	}
	return pairs, nil
}

func (w *serveMix) op(tid, i int, lt *layerTrace) (string, error) {
	c := w.conns[tid]
	q := w.next(c)
	var id int
	if lt != nil {
		id = lt.tr.begin(q.class, -1, i, tid)
	}
	pairs, err := w.send(c, q)
	if lt != nil {
		d := lt.tr.end(id)
		if q.class != classHit && q.route == routeCompile {
			w.mu.Lock()
			w.spans[q.src] = d
			w.mu.Unlock()
		}
	}
	if err == nil && q.delayPairs < 0 && q.route != routeVerify && len(c.unchecked) < postCheckCap {
		c.unchecked = append(c.unchecked, served{q, pairs, i})
	}
	return q.class, err
}

// postCheckCap bounds the fresh generated programs each client re-compiles
// directly after the timed phase.
const postCheckCap = 100

// postCheck compiles the sampled fresh programs directly and compares
// delay-set sizes with the server's; a mismatch is a failed op.
func (w *serveMix) postCheck() (failed int) {
	for tid, c := range w.conns {
		for _, s := range c.unchecked {
			want, err := direct(s.req.src, s.req.procs)
			if err == nil && want != s.pairs {
				err = fmt.Errorf("server answered %d delay pairs, a direct compile gives %d", s.pairs, want)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: serve-mix: client %d op %d failed its check: %v\n", tid, s.op, err)
				failed++
			}
		}
	}
	return failed
}

// probe re-drives miss and edit sources outside the server: a direct
// compile of each, to set against the served request's span, and then the
// passes one by one. The sources are the first of client 0's stream, so
// the counts read from them depend on the seed alone.
func (w *serveMix) probe(lt *layerTrace) error {
	w.stats = w.srv.Stats()
	c, err := newStream(w.seed, 0)
	if err != nil {
		return err
	}
	const want = 48
	var compiles layerSums
	var overhead, keyUs []float64
	for n, op := 0, 0; n < want; op++ {
		q := w.next(c)
		if q.class == classHit || q.route != routeCompile {
			continue
		}
		n++
		opts := splitc.Options{Procs: q.procs, Level: splitc.LevelOneWay, CSE: true}
		id := lt.tr.begin("direct compile", -1, op, 0)
		_, err := splitc.CompileContext(context.Background(), q.src, opts)
		whole := lt.tr.end(id)
		if err != nil {
			return err
		}
		_, layers, err := tracedCompile(lt.tr, q.src, opts, -1, op, 0)
		if err != nil {
			return err
		}
		compiles.add(layers)
		if span, ok := w.spans[q.src]; ok {
			overhead = append(overhead, ms(span-whole))
		}
		t0 := time.Now()
		key := serve.Key{Kind: "compile", Fingerprint: serve.SourceFingerprint(q.src), Procs: q.procs,
			Machine: "cm5", Level: serveLevel, CSE: true}
		_ = key.ID()
		keyUs = append(keyUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	// Means, not medians: the sample mixes sub-millisecond misses with
	// 20 ms edits, and the mean is what apportions a served millisecond.
	vals := compiles.per(want)
	vals["serve.overhead_ms"] = mean(overhead)
	vals["serve.key_us"] = mean(keyUs)
	lt.add(vals)
	return nil
}

func (w *serveMix) report(r *result, sp *spec, ph *phase, lt *layerTrace) {
	r.Failed += w.postCheck()
	// The per-class medians are end-to-end metrics of this workload alone.
	for _, class := range []string{classHit, classMiss, classEdit} {
		r.setSpec(sp, class+"_p50_ms", median(ph.latencies(class)))
	}
	if lt == nil {
		return
	}
	st := w.stats
	lookups := float64(st.CacheHits + st.CacheMisses)
	r.setSpec(sp, "serve.hit_share", float64(st.CacheHits)/lookups)
	r.setSpec(sp, "serve.dedup_share", float64(st.DedupHits)/lookups)
	r.setSpec(sp, "serve.store_mb", float64(st.StoreBytes)/1e6)
	r.setSpec(sp, "serve.timeouts", float64(st.Timeouts))
	r.setSpec(sp, "serve.errors", float64(st.Errors))
	gets, puts, body := w.store.medians()
	r.setSpec(sp, "serve.store_get_us", gets)
	r.setSpec(sp, "serve.store_put_us", puts)
	r.setSpec(sp, "serve.body_kb", body)
	// The second half of the layers-sum assertion: a served miss cannot
	// cost less than the compile inside it.
	if o := r.Metrics["serve.overhead_ms"].Value; o < 0 {
		lt.fail("serve.overhead_ms is %.3f: a served miss took less than a direct compile", o)
	}
}

func (w *serveMix) shutDown() {
	if w.http == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.http.Shutdown(ctx) // every client has its answer; nothing to drain
	<-w.served
	w.srv.Close()
	for _, c := range w.conns {
		c.idle.CloseIdleConnections()
	}
	w.http, w.srv = nil, nil
}

// timedStore wraps the server's artifact store in the traced run, timing
// Get and Put at the layer's boundary.
type timedStore struct {
	serve.Store
	mu               sync.Mutex
	getUs, putUs, kb []float64
}

func (s *timedStore) Get(id string) ([]byte, bool, error) {
	t0 := time.Now()
	body, ok, err := s.Store.Get(id)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.getUs = append(s.getUs, us)
	s.mu.Unlock()
	return body, ok, err
}

func (s *timedStore) Put(id string, body []byte) error {
	t0 := time.Now()
	err := s.Store.Put(id, body)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.putUs = append(s.putUs, us)
	s.kb = append(s.kb, float64(len(body))/1e3)
	s.mu.Unlock()
	return err
}

func (s *timedStore) medians() (getUs, putUs, kb float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.getUs), median(s.putUs), median(s.kb)
}
