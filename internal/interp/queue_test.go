package interp

import (
	"math/rand"
	"slices"
	"testing"
)

// evqOracle drives an evq and a plain list of the entries it holds side by
// side. After every pop it sorts the list by (t, pri, seq) and requires the
// queue's entry to be the list's first, payload included.
type evqOracle struct {
	t      *testing.T
	label  string
	q      evq
	live   []evqEntry
	seq    int64
	pushes int
	// intoEmpty counts pushes made while the run was empty: the one kind
	// of push the run takes whatever its key.
	intoEmpty int
	// copied counts entries the queue's growths moved; fullRun and
	// fullHeap count the growths by the tier that was full.
	copied, fullRun, fullHeap int
}

// pop removes and returns the queue's minimum entry, as the run loop
// (Runner.run) does in line.
func (q *evq) pop() evqEntry {
	if q.headFirst() {
		q.head++
		return q.run[(q.head-1)&(len(q.run)-1)]
	}
	return q.popHeap()
}

func newEvqOracle(t *testing.T, label string, n int) *evqOracle {
	return &evqOracle{t: t, label: label, q: newEvq(n)}
}

// push queues (tm, pri) under the next seq, or under seq when it is not
// negative.
func (o *evqOracle) push(tm, pri float64, seq int64) {
	if seq < 0 {
		o.seq++
		seq = o.seq
	}
	if o.q.head == o.q.tail {
		o.intoEmpty++
	}
	capacity, live := len(o.q.run)+cap(o.q.heap), o.q.len()
	runFull := o.q.tail-o.q.head == len(o.q.run)
	// Alternate the two entry forms so the payload rides along both tiers.
	if o.pushes%2 == 0 {
		o.q.pushInline(tm, pri, seq, int32(o.pushes%7), int32(o.pushes%5)-1)
		o.live = append(o.live, evqEntry{t: tm, pri: pri, seq: seq, ref: -(int32(o.pushes%7) + 1), aux: int32(o.pushes%5) - 1})
	} else {
		e := &event{t: tm, pri: pri, seq: seq, self: evRef(o.pushes)}
		o.q.push(e)
		o.live = append(o.live, evqEntry{t: tm, pri: pri, seq: seq, ref: evRef(o.pushes)})
	}
	if len(o.q.run)+cap(o.q.heap) != capacity {
		o.copied += live
		if runFull {
			o.fullRun++
		} else {
			o.fullHeap++
		}
	}
	o.pushes++
	o.check()
}

func (o *evqOracle) pop() {
	o.t.Helper()
	slices.SortFunc(o.live, func(x, y evqEntry) int {
		if entryLess(&x, &y) {
			return -1
		}
		return 1
	})
	got := o.q.pop()
	if got != o.live[0] {
		o.t.Fatalf("%s: pop %d: got %+v, want %+v", o.label, o.pushes, got, o.live[0])
	}
	o.live = o.live[1:]
	o.check()
}

// check holds the tiers to their invariants: the run ascends, and the
// queue holds what the list does.
func (o *evqOracle) check() {
	o.t.Helper()
	q := &o.q
	if q.len() != len(o.live) {
		o.t.Fatalf("%s: len %d, oracle holds %d", o.label, q.len(), len(o.live))
	}
	mask := len(q.run) - 1
	for i := q.head + 1; i < q.tail; i++ {
		if !entryLess(&q.run[(i-1)&mask], &q.run[i&mask]) {
			o.t.Fatalf("%s: run entries %d and %d out of order", o.label, i-1, i)
		}
	}
}

func (o *evqOracle) reset() {
	o.q.reset()
	o.live = o.live[:0]
	o.check()
}

// drain pops until the queue is empty.
func (o *evqOracle) drain() {
	for len(o.live) > 0 {
		o.pop()
	}
}

// TestEvqMatchesSortedOracle: under each traffic shape the two-tier queue
// pops exactly what a sort of its live entries puts first.
func TestEvqMatchesSortedOracle(t *testing.T) {
	const steps = 4000
	// mixed pushes with probability pPush, else pops (when any entry is
	// live), drawing keys from key.
	mixed := func(o *evqOracle, rng *rand.Rand, pPush float64, key func() (float64, float64)) {
		for i := 0; i < steps; i++ {
			if len(o.live) == 0 || rng.Float64() < pPush {
				tm, pri := key()
				o.push(tm, pri, -1)
			} else {
				o.pop()
			}
		}
		o.drain()
	}

	t.Run("monotone", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		o := newEvqOracle(t, "monotone", 8)
		last := 0.0
		mixed(o, rng, 0.55, func() (float64, float64) {
			last += float64(rng.Intn(3)) // equal t: the rising seq orders it
			return last, 0
		})
		if o.q.heapPushes != 0 || o.q.tail != o.pushes {
			t.Fatalf("%d of %d pushes reached the heap, want none", o.q.heapPushes, o.pushes)
		}
	})

	t.Run("all-in-front", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		o := newEvqOracle(t, "all-in-front", 8)
		first := 1e9
		mixed(o, rng, 0.6, func() (float64, float64) {
			first -= 1 + float64(rng.Intn(3))
			return first, 0
		})
		if o.q.tail != o.intoEmpty || o.q.heapPushes != o.pushes-o.intoEmpty {
			t.Fatalf("run took %d pushes, heap %d; want the run only the %d made into an empty run", o.q.tail, o.q.heapPushes, o.intoEmpty)
		}
		if o.q.heapPushes < steps/2 {
			t.Fatalf("only %d pushes reached the heap", o.q.heapPushes)
		}
	})

	t.Run("equal-t-by-seq", func(t *testing.T) {
		// One instant, one band: the keys differ in seq alone, and seqs are
		// drawn in shuffled order so both tiers see them out of order.
		rng := rand.New(rand.NewSource(3))
		o := newEvqOracle(t, "equal-t", 8)
		seqs := rng.Perm(steps)
		for i := 0; i < steps; i++ {
			if len(o.live) == 0 || rng.Float64() < 0.55 {
				o.push(5, 0, int64(seqs[i]))
			} else {
				o.pop()
			}
		}
		o.drain()
		if o.q.heapPushes == 0 || o.q.tail == 0 {
			t.Fatalf("run %d / heap %d: a tier went unused", o.q.tail, o.q.heapPushes)
		}
	})

	t.Run("perturb-bands", func(t *testing.T) {
		// As alloc draws them under Perturb: a message's band in [0, 1), a
		// resume's in [1, 2), over a few instants so the bands decide.
		rng := rand.New(rand.NewSource(4))
		o := newEvqOracle(t, "perturb", 8)
		now := 0.0
		mixed(o, rng, 0.55, func() (float64, float64) {
			if rng.Intn(8) == 0 {
				now++
			}
			pri := rng.Float64()
			if rng.Intn(2) == 0 {
				pri++
			}
			return now + float64(rng.Intn(3)), pri
		})
		if o.q.heapPushes == 0 || o.q.tail == 0 {
			t.Fatalf("run %d / heap %d: a tier went unused", o.q.tail, o.q.heapPushes)
		}
	})

	t.Run("reset-mid-stream", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		o := newEvqOracle(t, "reset", 8)
		for i := 0; i < steps; i++ {
			switch {
			case i%500 == 499:
				o.reset()
				if o.q.tail != 0 || o.q.heapPushes != 0 {
					t.Fatalf("reset left counters run %d / heap %d", o.q.tail, o.q.heapPushes)
				}
			case len(o.live) == 0 || rng.Float64() < 0.55:
				o.push(float64(i/4+rng.Intn(20)), 0, -1)
			default:
				o.pop()
			}
		}
		o.drain()
	})

	t.Run("growth", func(t *testing.T) {
		// Occupancy swings between a few entries and a few hundred, so the
		// ring wraps many times and the queue grows several times, from a
		// full ring and from a full heap. A growth copies each live entry
		// once and at least doubles the queue, so the total copied stays
		// below the final capacity; and a tier is full only when more than
		// a quarter of the queue is live, so that capacity stays below
		// eight times the most entries ever live.
		rng := rand.New(rand.NewSource(6))
		o := newEvqOracle(t, "growth", 8)
		last, most := 0.0, 0
		for round := 0; round < 200; round++ {
			depth := 4 + rng.Intn(300)
			front := []float64{0.1, 0.9}[round%2] // share pushed in front of the run
			for len(o.live) < depth {
				if rng.Float64() < front {
					o.push(last-float64(rng.Intn(50)), 0, -1)
				} else {
					last += float64(rng.Intn(2))
					o.push(last, 0, -1)
				}
			}
			most = max(most, depth)
			for len(o.live) > rng.Intn(4) {
				o.pop()
			}
		}
		o.drain()
		if wraps := o.q.tail / len(o.q.run); wraps < 20 {
			t.Fatalf("the ring wrapped %d times", wraps)
		}
		capacity := len(o.q.run) + cap(o.q.heap)
		if capacity < 256 {
			t.Fatalf("the queue grew only to %d", capacity)
		}
		if o.fullRun == 0 || o.fullHeap == 0 {
			t.Fatalf("growths from a full run %d, from a full heap %d", o.fullRun, o.fullHeap)
		}
		if o.copied >= capacity || capacity >= 8*most {
			t.Fatalf("growths copied %d entries; capacity %d, at most %d live, %d pushes", o.copied, capacity, most, o.pushes)
		}
	})
}
