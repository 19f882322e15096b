package interp

import (
	"strconv"

	"repro/internal/ir"
)

// OutcomeKey canonically renders a final program state — the shared-memory
// snapshot plus the print log — for outcome-set comparison. It is the one
// formatting used by the SC enumerators, the weak-run outcome checks, and
// the differential fuzz tests, so the three can never disagree on what
// "the same outcome" means.
//
// Print lines are length-prefixed ("|<len>:<line>") rather than joined
// with a bare separator: a printed value containing '|' would otherwise
// collide with a line boundary and two genuinely different outcomes could
// share a key. The snapshot part never contains '|' (symbol names are
// identifiers and values are numerals), so the encoding is injective.
func OutcomeKey(mem map[string][]ir.Value, prints []string) string {
	buf := appendSnapshot(nil, mem)
	for _, p := range prints {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(len(p)), 10)
		buf = append(buf, ':')
		buf = append(buf, p...)
	}
	return string(buf)
}
