package delay

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Sig is a 128-bit streaming fingerprint: two independently-mixed 64-bit
// lanes. Region cache keys are Sig values; at the cache's scale (thousands
// of live entries) a 128-bit digest makes silent collisions — which would
// mean silently wrong delay sets — a non-concern.
type Sig struct{ A, B uint64 }

// NewSig returns the fingerprint's initial state.
func NewSig() Sig {
	return Sig{A: 0xcbf29ce484222325, B: 0x9e3779b97f4a7c15}
}

// Word folds one 64-bit value into the fingerprint.
func (s *Sig) Word(w uint64) {
	s.A ^= w
	s.A *= 0x100000001b3
	s.A ^= s.A >> 29
	s.B ^= bits.ReverseBytes64(w)
	s.B *= 0xc6a4a7935bd1e995
	s.B ^= s.B >> 32
}

// Bytes folds a byte string into the fingerprint.
func (s *Sig) Bytes(b []byte) {
	var w uint64
	n := 0
	for _, c := range b {
		w = w<<8 | uint64(c)
		if n++; n == 8 {
			s.Word(w)
			w, n = 0, 0
		}
	}
	s.Word(w<<8 | uint64(n)) // length-tagged tail: "ab" != "ab\x00"
}

// RegionCache memoizes per-region results of sccCompute across Compute
// calls. The key fingerprints everything a region's answer depends on —
// its induced program-order and directed-conflict subgraphs in local ids,
// the skipped endpoints, and (via Constraints.NodeSig/ClassSig) the
// constraint rows behind Removed — so a hit is
// exact by construction, and the stored rows are local-id bitsets, immune
// to the global renumbering a source edit causes. Incremental analysis
// hands the same cache to successive Compute calls; regions untouched by
// an edit replay their rows instead of re-searching.
//
// Safe for concurrent use by the engine's worker pool.
type RegionCache struct {
	mu      sync.Mutex
	entries map[Sig]*cacheEntry
	order   []Sig // insertion order, for FIFO eviction
	words   int   // resident value words across all entries
	budget  int   // eviction threshold in words

	// Hits and Misses count region lookups; read them only between
	// Compute calls.
	Hits, Misses int
}

type cacheEntry struct {
	rows [][]uint64 // rows[lb] = local-id source bitset of target member lb
}

// NewRegionCache returns a cache bounded to roughly maxBytes of stored
// rows (oldest entries evicted first). Zero or negative means 64 MiB.
func NewRegionCache(maxBytes int) *RegionCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &RegionCache{entries: map[Sig]*cacheEntry{}, budget: maxBytes / 8}
}

func (c *RegionCache) get(key Sig) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e != nil {
		c.Hits++
	} else {
		c.Misses++
	}
	return e
}

func (c *RegionCache) put(key Sig, e *cacheEntry) {
	n := 0
	for _, r := range e.rows {
		n += len(r)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return // concurrent worker stored the same region first
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.words += n
	for c.words > c.budget && len(c.order) > 1 {
		old := c.order[0]
		c.order = c.order[1:]
		if oe := c.entries[old]; oe != nil {
			for _, r := range oe.rows {
				c.words -= len(r)
			}
			delete(c.entries, old)
		}
	}
}

// cacheUsable reports whether the constraint set can be fingerprinted at
// all: opaque per-pair callbacks defeat memoization unless their state is
// exposed through NodeSig or ClassSig.
func cacheUsable(con Constraints) bool {
	return con.Cache != nil &&
		(con.Removed == nil || con.NodeSig != nil || con.ClassSig != nil)
}

// regionSig fingerprints one region: member count, the skipped
// endpoints, per-member program-order and directed-conflict successors
// within the region (as local ids, so access renumbering outside the
// region cannot disturb the key), and the caller's NodeSig rows. Section
// sentinels (high-bit-tagged words no local id can produce) keep
// variable-length parts from aliasing each other.
func regionSig(ag *ir.AccessGraph, con Constraints, comp []int32, c int,
	members []int32, mask []uint64, lof []int32, dirOut graph.Rows, skip []uint64) Sig {

	s := NewSig()
	s.Word(uint64(len(members)))
	s.Word(boolBit(con.Removed != nil)<<1 | boolBit(skip != nil))
	adj := ag.G.Adj
	for _, gv := range members {
		gu := int(gv)
		for _, v := range adj[gu] {
			if comp[v] == int32(c) {
				s.Word(uint64(lof[v]))
			}
		}
		s.Word(1<<63 | 1<<8 | boolBit(skip != nil && graph.BitGet(skip, gu)))
		for wi, word := range dirOut.Row(gu) {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				s.Word(uint64(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
		s.Word(1<<63 | 2)
		if con.NodeSig != nil && con.Removed != nil {
			con.NodeSig(gu, mask, lof, &s)
			s.Word(1<<63 | 3)
		}
	}
	if con.ClassSig != nil && con.Removed != nil {
		// Class-condensed constraint fingerprint: one call per region
		// instead of one per node; see Constraints.ClassSig.
		con.ClassSig(members, mask, lof, &s)
		s.Word(1<<63 | 4)
	}
	return s
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
