package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestFlightGroupDedup pins the leader/follower contract deterministically:
// the leader blocks until every follower is known to be waiting, so
// exactly one execution serves all callers.
func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	const followers = 8
	release := make(chan struct{})
	executions := 0
	waitDups := func(n int) {
		for {
			g.mu.Lock()
			d := 0
			if c := g.m["k"]; c != nil {
				d = c.dups
			}
			g.mu.Unlock()
			if d >= n {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(context.Background(), "k", func() ([]byte, error) {
			executions++
			<-release
			return []byte("result"), nil
		})
		if shared {
			t.Error("leader reported shared")
		}
		leaderDone <- err
	}()
	// Wait until the leader owns the key.
	for g.inflight() == 0 {
		time.Sleep(time.Millisecond)
	}

	var fwg sync.WaitGroup
	for i := 0; i < followers; i++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			body, shared, err := g.Do(context.Background(), "k", func() ([]byte, error) {
				t.Error("follower executed fn")
				return nil, nil
			})
			if err != nil || !shared || string(body) != "result" {
				t.Errorf("follower got %q shared=%v err=%v", body, shared, err)
			}
		}()
	}
	// Release only once every follower is registered as a waiter, so no
	// follower can arrive late and become a second leader.
	waitDups(followers)
	close(release)
	fwg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if executions != 1 {
		t.Fatalf("executions = %d, want 1", executions)
	}
	if g.inflight() != 0 {
		t.Fatalf("inflight = %d after completion, want 0", g.inflight())
	}
}

// TestFlightGroupFollowerTimeout pins context-aware waiting: a follower
// whose context expires stops waiting while the leader finishes for the
// others.
func TestFlightGroupFollowerTimeout(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		g.Do(context.Background(), "k", func() ([]byte, error) {
			<-release
			return []byte("late"), nil
		})
	}()
	for g.inflight() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := g.Do(ctx, "k", func() ([]byte, error) { return nil, nil })
	if err != context.DeadlineExceeded || !shared {
		t.Fatalf("follower got shared=%v err=%v, want deadline exceeded", shared, err)
	}
	close(release)
	<-leaderDone
}

// inflight reports how many keys currently have a leader in flight.
func (g *flightGroup) inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
