package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// storeConformance is the shared test suite every Store backend must
// pass; each backend registers a fresh-store constructor and runs the
// whole suite against it. A future backend (the verification farm's
// shared store) plugs in here and inherits the contract for free.
func storeConformance(t *testing.T, mk func(t *testing.T) Store) {
	t.Run("PutGet", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		id := (Key{Kind: "compile", Fingerprint: SourceFingerprint("p"), Procs: 8}).ID()
		if _, ok, err := s.Get(id); err != nil || ok {
			t.Fatalf("empty store Get = ok=%v err=%v, want miss", ok, err)
		}
		body := []byte(`{"target":"code"}`)
		if err := s.Put(id, body); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok, err := s.Get(id)
		if err != nil || !ok || !bytes.Equal(got, body) {
			t.Fatalf("Get = %q ok=%v err=%v, want stored body", got, ok, err)
		}
		if s.Len() != 1 {
			t.Fatalf("Len = %d, want 1", s.Len())
		}
		if s.SizeBytes() != int64(len(body)) {
			t.Fatalf("SizeBytes = %d, want %d", s.SizeBytes(), len(body))
		}
	})

	t.Run("Overwrite", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		id := (Key{Kind: "compile", Fingerprint: "f"}).ID()
		if err := s.Put(id, []byte("first")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(id, []byte("second")); err != nil {
			t.Fatal(err)
		}
		got, ok, _ := s.Get(id)
		if !ok || (string(got) != "first" && string(got) != "second") {
			t.Fatalf("Get after overwrite = %q ok=%v, want a complete body", got, ok)
		}
		if s.Len() != 1 {
			t.Fatalf("Len after overwrite = %d, want 1", s.Len())
		}
	})

	// Distinct tuples sharing one source fingerprint must not collide in
	// the store: the content address carries the whole tuple.
	t.Run("FingerprintCollision", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		fp := SourceFingerprint("same source")
		k1 := Key{Kind: "compile", Fingerprint: fp, Procs: 8, Machine: "cm5", Level: "oneway"}
		k2 := Key{Kind: "compile", Fingerprint: fp, Procs: 8, Machine: "t3d", Level: "oneway"}
		k3 := Key{Kind: "compile", Fingerprint: fp, Procs: 8, Machine: "cm5", Level: "blocking"}
		for i, k := range []Key{k1, k2, k3} {
			if err := s.Put(k.ID(), []byte(fmt.Sprintf("artifact-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range []Key{k1, k2, k3} {
			got, ok, err := s.Get(k.ID())
			want := fmt.Sprintf("artifact-%d", i)
			if err != nil || !ok || string(got) != want {
				t.Fatalf("tuple %d: Get = %q ok=%v err=%v, want %q", i, got, ok, err, want)
			}
		}
	})

	t.Run("Concurrent", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		const writers, perWriter = 8, 32
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					id := (Key{Kind: "compile", Fingerprint: fmt.Sprintf("w%d-i%d", w, i%8)}).ID()
					body := []byte(fmt.Sprintf("body-w%d-i%d", w, i%8))
					if err := s.Put(id, body); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					got, ok, err := s.Get(id)
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if ok && !bytes.Equal(got, body) {
						t.Errorf("Get = %q, want %q", got, body)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

func TestMemStoreConformance(t *testing.T) {
	storeConformance(t, func(t *testing.T) Store { return NewMemStore(0) })
}

func TestDiskStoreConformance(t *testing.T) {
	storeConformance(t, func(t *testing.T) Store {
		s, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestMemStoreEviction pins the LRU byte budget: old artifacts leave
// least-recently-used first, recently touched ones survive.
func TestMemStoreEviction(t *testing.T) {
	s := NewMemStore(100)
	put := func(id string, n int) {
		if err := s.Put(id, bytes.Repeat([]byte("x"), n)); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 40)
	put("b", 40)
	if _, ok, _ := s.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing before eviction")
	}
	put("c", 40) // 120 > 100: evicts b
	if _, ok, _ := s.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok, _ := s.Get(id); !ok {
			t.Fatalf("%s should have survived", id)
		}
	}
	// A single artifact over the whole budget is refused, not an
	// eviction storm.
	put("huge", 200)
	if _, ok, _ := s.Get("huge"); ok {
		t.Fatal("over-budget artifact should not be stored")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after refused put, want 2", s.Len())
	}
}

// TestDiskStoreCorruptRecovery pins the disk backend's self-verification:
// truncated, bit-flipped, or garbage files are dropped and reported as
// misses, and a re-Put restores service.
func TestDiskStoreCorruptRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := (Key{Kind: "compile", Fingerprint: "f", Procs: 8}).ID()
	body := []byte(`{"target":"good"}`)

	corruptions := []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bitflip", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)/2] ^= 0x40
			return out
		}},
		{"garbage", func(d []byte) []byte { return []byte("not an artifact") }},
		{"empty", func(d []byte) []byte { return nil }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if err := s.Put(id, body); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, id[:2], id)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := s.Get(id); err != nil || ok {
				t.Fatalf("corrupt Get = %q ok=%v err=%v, want clean miss", got, ok, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file should have been removed, stat err=%v", err)
			}
			// Recovery: the next Put serves again.
			if err := s.Put(id, body); err != nil {
				t.Fatal(err)
			}
			if got, ok, _ := s.Get(id); !ok || !bytes.Equal(got, body) {
				t.Fatalf("post-recovery Get = %q ok=%v, want original body", got, ok)
			}
		})
	}
}

// TestDiskStoreReopen pins persistence: a new DiskStore over the same
// directory serves artifacts stored by the previous one.
func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := (Key{Kind: "analyze", Fingerprint: "f"}).ID()
	if err := s1.Put(id, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok, err := s2.Get(id); err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("reopened Get = %q ok=%v err=%v", got, ok, err)
	}
	if s2.Len() != 1 || s2.SizeBytes() != int64(len("persisted")) {
		t.Fatalf("reopened index: Len=%d SizeBytes=%d", s2.Len(), s2.SizeBytes())
	}
}
