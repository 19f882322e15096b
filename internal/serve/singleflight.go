package serve

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent work by key: the first caller of a
// key becomes the leader and runs fn; followers arriving while the leader
// is in flight wait for the leader's result instead of recomputing it.
// Unlike the classic singleflight, waiting is context-aware — a follower
// whose context expires stops waiting and gets its context error while
// the leader's computation continues for the others.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	body []byte
	err  error
	dups int
}

// Do runs fn for key, deduplicating concurrent calls. shared is true when
// this caller received a leader's result instead of running fn itself.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.body, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.body, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.body, false, c.err
}
