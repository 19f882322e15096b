package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/delay"
)

// TestNoRequestFieldEscapesTheKey walks every JSON field of the three
// request types, changes it to another valid value, and requires the
// normalized cache key's content address to move: a field that reaches the
// computation but not the key would let one request's artifact answer a
// different one. timeout_ms is exempt everywhere — it bounds the work, it
// does not change the result — and analyze's machine and level are
// exempt because its artifact, the front, reads neither. An exempt field
// must leave the address where it is, or identical artifacts are computed
// and stored once per value. A field of a kind the test cannot perturb
// fails it, so a new knob has to be put in the key or exempted here by
// name.
func TestNoRequestFieldEscapesTheKey(t *testing.T) {
	t.Run("compile", func(t *testing.T) {
		keyCoversFields(t, CompileRequest{Source: "prog", Procs: 8}, func(req *CompileRequest) (Key, error) {
			_, key, err := normalizeCompile(req)
			return key, err
		})
	})
	t.Run("analyze", func(t *testing.T) {
		keyCoversFields(t, AnalyzeRequest{Source: "prog", Procs: 8}, func(req *AnalyzeRequest) (Key, error) {
			_, key, err := normalizeAnalyze(req)
			return key, err
		}, "machine", "level")
	})
	t.Run("verify", func(t *testing.T) {
		keyCoversFields(t, VerifyRequest{Source: "prog", Procs: 8}, func(req *VerifyRequest) (Key, error) {
			_, key, err := normalizeVerify(req)
			return key, err
		})
	})
}

func keyCoversFields[Req any](t *testing.T, base Req, keyOf func(*Req) (Key, error), exempt ...string) {
	req := base
	baseKey, err := keyOf(&req)
	if err != nil {
		t.Fatalf("base request rejected: %v", err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if name == "timeout_ms" {
			continue
		}
		req := base
		perturbField(t, reflect.ValueOf(&req).Elem().Field(i), name)
		key, err := keyOf(&req)
		switch {
		case err != nil:
			t.Errorf("%s.%s: perturbed request rejected: %v", typ.Name(), name, err)
		case slices.Contains(exempt, name) && key.ID() != baseKey.ID():
			t.Errorf("%s.%s reaches the cache key, which its artifact does not read", typ.Name(), name)
		case !slices.Contains(exempt, name) && key.ID() == baseKey.ID():
			t.Errorf("%s.%s does not reach the cache key", typ.Name(), name)
		}
	}
}

// perturbField changes one request field to a different valid value.
func perturbField(t *testing.T, f reflect.Value, name string) {
	// Fields whose valid values are constrained, by JSON name.
	named := map[string]any{
		"machine": "t3d",
		"level":   "pipelined",
		"levels":  []string{"pipelined"},
		"weaken":  []WeakenPair{{A: 0, B: 1}},
	}
	if v, ok := named[name]; ok {
		f.Set(reflect.ValueOf(v))
		return
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(f.String() + " ")
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	default:
		t.Fatalf("field %q has kind %s: teach the test to perturb it, and put it in the key", name, f.Kind())
	}
}

// keyVariant is a key tuple changed in one field.
type keyVariant struct {
	name string
	mut  func(k Key) Key
}

func keyVariants() (base Key, variants []keyVariant) {
	base = Key{Kind: "compile", Fingerprint: SourceFingerprint("prog"), Procs: 8,
		Machine: "cm5", Level: "oneway"}
	return base, []keyVariant{
		{"kind", func(k Key) Key { k.Kind = "analyze"; return k }},
		{"fingerprint", func(k Key) Key { k.Fingerprint = SourceFingerprint("prog "); return k }},
		{"procs", func(k Key) Key { k.Procs = 16; return k }},
		{"machine", func(k Key) Key { k.Machine = "t3d"; return k }},
		{"level", func(k Key) Key { k.Level = "pipelined"; return k }},
		{"cse", func(k Key) Key { k.CSE = true; return k }},
		{"exact", func(k Key) Key { k.Exact = true; return k }},
		{"weaken", func(k Key) Key { k.Weaken = "0-1"; return k }},
		{"extra", func(k Key) Key { k.Extra = "sched=4"; return k }},
	}
}

// TestKeyIDDistinguishesTuple pins the cache-key soundness requirement:
// any single-field difference in the tuple — same source fingerprint
// included — must produce a distinct content address.
func TestKeyIDDistinguishesTuple(t *testing.T) {
	base, variants := keyVariants()
	seen := map[string]string{base.ID(): "base"}
	for _, v := range variants {
		id := v.mut(base).ID()
		if prev, dup := seen[id]; dup {
			t.Errorf("variant %q collides with %q", v.name, prev)
		}
		seen[id] = v.name
	}
	if got := base.ID(); got != base.ID() {
		t.Errorf("ID not deterministic")
	}
}

// TestKeyVersionChangesEveryID: artifacts stored before the version field
// existed were addressed by the same encoding without it. A disk cache
// holding them must never replay one — a compile artifact of that shape
// reports baseline_pairs at every level — so no tuple may keep its old
// address.
func TestKeyVersionChangesEveryID(t *testing.T) {
	unversioned := func(k Key) string {
		h := sha256.New()
		for _, s := range []string{k.Kind, k.Fingerprint, strconv.Itoa(k.Procs), k.Machine, k.Level,
			boolStr(k.CSE), boolStr(k.Exact), k.Weaken, k.Extra} {
			var lenbuf [8]byte
			binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(s)))
			h.Write(lenbuf[:])
			h.Write([]byte(s))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	base, variants := keyVariants()
	keys := []Key{base, {}}
	for _, v := range variants {
		keys = append(keys, v.mut(base))
	}
	for _, k := range keys {
		if k.ID() == unversioned(k) {
			t.Errorf("%+v: ID is the unversioned address", k)
		}
	}
}

// TestKeyIDFieldBoundaries guards the length-prefixed encoding: moving
// a character across a field boundary must change the address.
func TestKeyIDFieldBoundaries(t *testing.T) {
	a := Key{Kind: "compile", Machine: "t3", Level: "doneway"}
	b := Key{Kind: "compile", Machine: "t3d", Level: "oneway"}
	if a.ID() == b.ID() {
		t.Fatalf("field boundary collision: %q/%q vs %q/%q", a.Machine, a.Level, b.Machine, b.Level)
	}
}

func TestCanonicalWeaken(t *testing.T) {
	a := CanonicalWeaken([]delay.Pair{{A: 3, B: 4}, {A: 0, B: 1}})
	b := CanonicalWeaken([]delay.Pair{{A: 0, B: 1}, {A: 3, B: 4}})
	if a != b || a != "0-1,3-4" {
		t.Fatalf("canonicalization failed: %q vs %q", a, b)
	}
	if CanonicalWeaken(nil) != "" {
		t.Fatalf("empty weaken must canonicalize to empty string")
	}
}

func TestKeyShort(t *testing.T) {
	k := Key{Kind: "compile"}
	if s := k.Short(); len(s) != 12 || !strings.HasPrefix(k.ID(), s) {
		t.Fatalf("Short() = %q, want 12-char prefix of %q", s, k.ID())
	}
}
