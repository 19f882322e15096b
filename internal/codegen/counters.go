package codegen

import (
	"sort"
	"strconv"

	"repro/internal/target"
)

// allocateCounters reduces the number of synchronizing counters by letting
// accesses share one when their sync placements are identical (section 6:
// a remote read is transformed using "a new or reused synchronizing
// counter"). Sharing a counter makes each sync wait for the union of the
// operations on it, so merging accesses that sync at exactly the same
// program points costs nothing and models Split-C's bounded counter
// resources.
//
// Runs after sync placement and one-way conversion; insertSyncs then emits
// a single sync_ctr per (position, counter) pair.
func (g *Generator) allocateCounters() {
	// Signature: the sorted set of placement positions plus whether any
	// copy dropped off the end. Accesses in different blocks can share a
	// counter only via identical position sets, which also implies their
	// initiation blocks both lead to those syncs.
	bySig := map[string][]*accInfo{}
	var buf []byte
	for _, info := range g.infos {
		if info == nil || info.removed {
			continue
		}
		buf = signature(info, buf[:0])
		bySig[string(buf)] = append(bySig[string(buf)], info)
	}
	sigs := make([]string, 0, len(bySig))
	for s := range bySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	next := target.Ctr(0)
	remap := make([]target.Ctr, g.prog.Counters) // -1: no surviving access holds the counter
	for i := range remap {
		remap[i] = -1
	}
	for _, s := range sigs {
		group := bySig[s]
		for _, info := range group {
			remap[info.ctr] = next
			if info.ctr != next {
				g.stats.CountersSaved++
			}
			info.ctr = next
		}
		if len(group) > 1 {
			g.stats.CountersShared += len(group) - 1
		}
		next++
	}
	// Rewrite the statement counters.
	for _, blk := range g.prog.Blocks {
		for _, st := range blk.Stmts {
			switch st := st.(type) {
			case *target.Get:
				if c := remap[st.Ctr]; c >= 0 {
					st.Ctr = c
				}
			case *target.Put:
				if c := remap[st.Ctr]; c >= 0 {
					st.Ctr = c
				}
			}
		}
	}
	g.prog.Counters = int(next)
}

// signature appends the canonical form of an access's sync placements to
// buf: "|blk:idx" per position, sorted. Dropped copies (program end) emit
// no syncs and do not distinguish signatures.
func signature(info *accInfo, buf []byte) []byte {
	type p struct{ blk, idx int }
	ps := make([]p, 0, len(info.positions))
	for _, pos := range info.positions {
		ps = append(ps, p{pos.blk.ID, pos.idx})
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].blk != ps[j].blk {
			return ps[i].blk < ps[j].blk
		}
		return ps[i].idx < ps[j].idx
	})
	for _, q := range ps {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(q.blk), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(q.idx), 10)
	}
	return buf
}
