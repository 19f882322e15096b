package interp

// evqEntry is one scheduled event with its ordering key hoisted out of the
// event struct and the event named by its store ref. Entries are
// pointer-free, so heap sifts are plain 32-byte copies: no write barriers
// and no GC scan work for the queue's backing array (under container/heap
// with *event elements the barrier flushes alone cost ~15% of a run).
//
// The two dominant event kinds — processor resumes and get-read samples —
// carry so little payload that it fits in the entry itself: a negative ref
// encodes the processor (-(ref+1)) and aux selects the action (a landRec
// slot to deposit into, or -1 for a resume). Those events never touch the
// event store at all: no allocation, no zeroing, no free-list traffic on
// the simulator's hottest path. aux lives in what was padding, so the
// entry stays 32 bytes.
type evqEntry struct {
	t   float64
	pri float64
	seq int64
	ref evRef // >= 0: event-store slot; < 0: inline event for proc -(ref+1)
	aux int32 // inline events: landRec slot for a read, -1 for a resume
}

// evq orders events by (t, pri, seq) — the simulator's strict total event
// order — in two tiers:
//
//   - run, a FIFO of entries in ascending key order. A push keyed after the
//     run's last entry, or any push while the run is empty, appends there
//     in O(1). Most pushes are such: a processor's next resume or a message
//     one wire latency out lands behind everything queued, 77 % of a
//     simulate-apps lap's pushes and 98.6 % on Cholesky@64 baseline.
//   - heap, a 4-ary min-heap, takes every other push. A 4-ary shape halves
//     the tree depth of a binary heap and keeps each node's children
//     adjacent in one pair of cache lines.
//
// A pop takes the lesser of the run's head and the heap's top. Each is its
// tier's minimum — the run is ascending by construction, the heap by its
// invariant — and no two keys tie (seq is unique), so the lesser is the
// queue's minimum and events leave in exactly the order one heap gave:
// every clock, count and tap stream is unchanged. The heap stays because
// much traffic is out of order: Ocean@256 puts 69,953 of its 148,012
// pushes in front of the run's tail.
//
// The run is a power-of-two ring addressed by free-running counters: it
// holds the entries numbered head..tail-1, entry i at i&(len(run)-1).
// Neither counter rewinds before a reset, so tail also counts the run's
// appends. Both tiers are carved from one array, and when either is full
// both move to one array twice its size, so a growth is one allocation
// and copies each live entry once.
type evq struct {
	run        []evqEntry
	head, tail int
	heap       []evqEntry
	heapPushes int // pushes the heap took since the last reset
}

// newEvq carves both tiers from one backing array of n >= 2 entries: the
// run gets the largest power of two no more than half of it, the heap the
// rest. The heap's share is never the smaller, so a growth at least
// doubles the run.
func newEvq(n int) evq {
	r := 1
	for 2*r <= n/2 {
		r *= 2
	}
	a := make([]evqEntry, n)
	return evq{run: a[:r], heap: a[r:r]}
}

// reset empties both tiers, keeping their storage.
func (q *evq) reset() {
	q.head, q.tail, q.heapPushes = 0, 0, 0
	q.heap = q.heap[:0]
}

func (q *evq) len() int { return q.tail - q.head + len(q.heap) }

// entryLess orders entries by time, then perturbation band, then sequence
// number — identical to the executor's historical comparator, so the queue
// pops events in the same order (the key is a strict total order: seq is
// unique).
func entryLess(x, y *evqEntry) bool { return x.before(y.t, y.pri, y.seq) }

// before reports whether the entry's key precedes (t, pri, seq).
func (x *evqEntry) before(t, pri float64, seq int64) bool {
	if x.t != t {
		return x.t < t
	}
	if x.pri != pri {
		return x.pri < pri
	}
	return x.seq < seq
}

// push schedules a store event.
func (q *evq) push(e *event) {
	q.insert(e.t, e.pri, e.seq, e.self, 0)
}

// pushInline schedules an event that lives entirely in its queue entry:
// a get-read sample (aux = landRec slot) or a resume (aux = -1) for proc.
func (q *evq) pushInline(t, pri float64, seq int64, proc, aux int32) {
	q.insert(t, pri, seq, -(proc + 1), aux)
}

// insert appends the entry to the run when it is keyed after the run's
// tail, and pushes it on the heap otherwise. It and pushHeap take the
// entry's fields, not an evqEntry: a struct argument is spilled a field at
// a time and read back in wider words, and each such load stalls on store
// forwarding.
func (q *evq) insert(t, pri float64, seq int64, ref, aux int32) {
	if q.head != q.tail {
		if last := &q.run[(q.tail-1)&(len(q.run)-1)]; !last.before(t, pri, seq) {
			q.pushHeap(t, pri, seq, ref, aux)
			return
		}
	}
	if q.tail-q.head == len(q.run) {
		q.grow()
	}
	r := &q.run[q.tail&(len(q.run)-1)]
	r.t, r.pri, r.seq, r.ref, r.aux = t, pri, seq, ref, aux
	q.tail++
}

// pushHeap sifts the entry up from a new leaf. Keys are unique, so a
// parent not keyed after it is keyed before it.
func (q *evq) pushHeap(t, pri float64, seq int64, ref, aux int32) {
	q.heapPushes++
	if len(q.heap) == cap(q.heap) {
		q.grow()
	}
	q.heap = q.heap[:len(q.heap)+1]
	a := q.heap
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if a[parent].before(t, pri, seq) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	e := &a[i]
	e.t, e.pri, e.seq, e.ref, e.aux = t, pri, seq, ref, aux
}

// grow moves both tiers to one array twice the size of the two together,
// carved as newEvq carves. Each run entry moves to its number's index
// under the new mask, so head and tail stay as they are; the heap moves
// as it lies.
func (q *evq) grow() {
	nq := newEvq(2 * (len(q.run) + cap(q.heap)))
	for i := q.head; i < q.tail; i++ {
		nq.run[i&(len(nq.run)-1)] = q.run[i&(len(q.run)-1)]
	}
	q.run = nq.run
	q.heap = append(nq.heap, q.heap...)
}

// headFirst reports whether the run's head is the queue's minimum: the
// run is not empty, and the heap is, or its top is keyed later. A pop then
// takes the run's head, and the heap's top otherwise (popHeap); the run
// loop pops in line.
func (q *evq) headFirst() bool {
	return q.head != q.tail && (len(q.heap) == 0 || entryLess(&q.run[q.head&(len(q.run)-1)], &q.heap[0]))
}

// popHeap removes and returns the heap's minimum. The root hole is
// refilled with Floyd's bottom-up scheme: promote the least child down to
// a leaf (three comparisons per level), then sift the displaced tail entry
// up from there. Tail entries are late arrivals that nearly always belong
// at a leaf, so the up-phase usually terminates immediately — one
// comparison per level cheaper than sifting the tail entry down against
// each level's least child.
func (q *evq) popHeap() evqEntry {
	a := q.heap
	min := a[0]
	n := len(a) - 1
	ent := a[n]
	q.heap = a[:n]
	if n == 0 {
		return min
	}
	a = q.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Pick the least of up to four children.
		least := c
		if end := c + 4; end > n {
			for j := c + 1; j < n; j++ {
				if entryLess(&a[j], &a[least]) {
					least = j
				}
			}
		} else {
			if entryLess(&a[c+1], &a[least]) {
				least = c + 1
			}
			if entryLess(&a[c+2], &a[least]) {
				least = c + 2
			}
			if entryLess(&a[c+3], &a[least]) {
				least = c + 3
			}
		}
		a[i] = a[least]
		i = least
	}
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(&ent, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ent
	return min
}
