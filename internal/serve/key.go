// Package serve is the compilation-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/pscd) wrapping splitc.NewFront and Generate behind
// /v1/compile, /v1/analyze, and /v1/verify, with singleflight deduplication
// of identical in-flight requests, a bounded worker pool (internal/bench's
// Pool), and a content-addressed artifact cache behind a pluggable Store
// interface (in-memory LRU and on-disk backends).
//
// Cache soundness rests on compilation being a pure function of the
// request tuple: the same (source, procs, machine, level, CSE/exact knobs,
// weaken spec) always produces byte-identical target code and analysis
// results, so an artifact stored under the tuple's digest can be replayed
// for any later identical request. DESIGN.md §14 gives the argument.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"repro/internal/delay"
)

// Key is the cache-key tuple: every compiler input that can change the
// result of a request. Kind separates the three endpoint namespaces so a
// compile artifact can never answer an analyze request for the same
// program.
type Key struct {
	// Kind is the endpoint namespace: "compile", "analyze", or "verify".
	Kind string
	// Fingerprint is the hex SHA-256 of the program source. The raw text
	// (not the parsed form) is hashed: two sources that differ only in
	// comments get distinct keys, trading a few spurious misses for a
	// fingerprint that needs no front-end work.
	Fingerprint string
	// Procs is the compile-time machine size.
	Procs int
	// Machine is the cost-model name (machine.ByName); it selects the
	// simulated machine for verify runs and is part of the tuple for all
	// kinds so artifacts stay distinct per requested target.
	Machine string
	// Level is the optimization level name.
	Level string
	// CSE and Exact mirror splitc.Options.
	CSE   bool
	Exact bool
	// Weaken is the canonical weaken spec: sorted "a-b" pairs,
	// comma-joined.
	Weaken string
	// Extra carries kind-specific knobs (verify: schedules, levels,
	// deterministic flag).
	Extra string
}

// CanonicalWeaken renders delay pairs in the canonical key form: sorted by
// (A, B), "a-b" comma-joined. Canonicalizing here means two requests that
// list the same weakenings in different orders share one artifact.
func CanonicalWeaken(pairs []delay.Pair) string {
	if len(pairs) == 0 {
		return ""
	}
	ps := append([]delay.Pair(nil), pairs...)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p.A))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(p.B))
	}
	return b.String()
}

// SourceFingerprint digests program text for Key.Fingerprint.
func SourceFingerprint(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// keyVersion is the shape of the artifacts a Key addresses. ID hashes it
// before the tuple, so changing it retires every stored artifact at once,
// on disk too: raise it whenever a result type gains, loses or redefines a
// field. Version 2: a compile reports baseline_pairs only at level
// baseline. Version 3: section 7 runs as licm then cse, without
// gets_eliminated and gets_dead, and withholds rewrites the delay set
// forbids. Version 4: sync-analysis reports cophase_pairs, the count it
// used to call cophase_accesses. Version 5: an analyze key names neither
// the machine nor the level, which its artifact never read, so one
// artifact answers every machine and level.
const keyVersion = "5"

// ID is the content address of the tuple: the hex SHA-256 of a
// length-prefixed encoding of keyVersion and every field. Length prefixes
// make the encoding injective — no arrangement of field values can collide
// with a different arrangement (the same construction as the interpreter's
// OutcomeKey), so two requests share an ID exactly when every field of
// their tuples is equal.
func (k Key) ID() string {
	h := sha256.New()
	var lenbuf [8]byte
	field := func(s string) {
		binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(s)))
		h.Write(lenbuf[:])
		h.Write([]byte(s))
	}
	field(keyVersion)
	field(k.Kind)
	field(k.Fingerprint)
	field(strconv.Itoa(k.Procs))
	field(k.Machine)
	field(k.Level)
	field(boolStr(k.CSE))
	field(boolStr(k.Exact))
	field(k.Weaken)
	field(k.Extra)
	return hex.EncodeToString(h.Sum(nil))
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Short is the log-friendly prefix of the content address.
func (k Key) Short() string {
	id := k.ID()
	return id[:12]
}
