package main

import (
	"math/bits"
	"sort"
	"time"
)

// The host reference: a fixed kernel, timed between the slices of every
// timed phase, that says how fast the host is running right now.
//
// The benchmark's box is two hardware threads of a shared host. When a
// neighbour is busy on the sibling threads, code that keeps a core's
// pipelines full — a compiler, an interpreter loop — runs up to 60% slower
// for a minute or two, while a loop of dependent instructions barely
// notices. Ten runs of one commit then differ by more than any bound worth
// gating on. So the timings the benchmark reports are divided by the
// slowdown of this kernel, measured within half a second of the op, against
// hostNominalMs. The kernel is of the sensitive kind: four independent
// instruction streams, bitset rows OR-ed and counted, and a sort — wide,
// load-heavy and branchy, as the program's layers are. It allocates
// nothing, so the heap of the program under test cannot move it, and it
// calls nothing of the program, so no change to the program can.
//
// On the reference box, ten minutes of compile-2k ops in windows of 20 s
// read 16% apart between quartiles and 64% end to end as measured, and 6%
// and 18% divided by this kernel (README, "Noise").

// hostNominalMs is the kernel's time on the quiet reference box. It fixes
// the scale only: with it, a normalized millisecond is a millisecond of the
// quiet box.
const hostNominalMs = 26.0

const (
	refStreams = 4_000_000
	refRounds  = 550
	refSortLen = 100_000
)

var hostRefState struct {
	rows     [][]uint64
	src, buf []int
	sink     uint64
}

func init() {
	s := &hostRefState
	s.rows = make([][]uint64, 64) // 128 kB, cache-resident
	for i := range s.rows {
		s.rows[i] = make([]uint64, 256)
		s.rows[i][i] = 1
	}
	s.src = make([]int, refSortLen)
	s.buf = make([]int, refSortLen)
	x := uint64(99)
	for i := range s.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.src[i] = int(x >> 1)
	}
}

// hostRef runs the kernel once and returns its wall time in milliseconds.
func hostRef() float64 {
	s := &hostRefState
	t0 := time.Now()

	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < refStreams; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}

	n := 0
	for r := 0; r < refRounds; r++ {
		for i := 1; i < len(s.rows); i++ {
			x, y := s.rows[i], s.rows[i-1]
			for k := range x {
				x[k] |= y[k] & uint64(r*i+k)
				n += bits.OnesCount64(x[k])
			}
		}
	}

	copy(s.buf, s.src)
	sort.Ints(s.buf)

	s.sink += a + b + c + d + uint64(n) + uint64(s.buf[7])
	return ms(time.Since(t0))
}

// slowdown turns the kernel's readings before and after a stretch of work
// into the factor the host ran slower by over that stretch.
func slowdown(before, after float64) float64 {
	return (before + after) / 2 / hostNominalMs
}
