package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DiskStore is the on-disk backend: one file per artifact under
// dir/<id[:2]>/<id>, sharded by digest prefix so directories stay small.
// Files are self-verifying — an 8-byte length header plus a SHA-256
// trailer over the body — and written via rename from a temp file, so a
// crash mid-write can never leave a readable-but-wrong artifact. A file
// that fails verification (truncated, bit-rotted, or hand-edited) is
// deleted and reported as a miss: the cache recomputes, it never serves
// corrupt bytes.
type DiskStore struct {
	dir string

	mu      sync.RWMutex
	lens    map[string]int64 // id -> body length, for Len/SizeBytes
	bytes   int64
	corrupt int64
	tmpSeq  int64
}

const diskMagic = "pscd1\n"

// NewDiskStore opens (creating if needed) an artifact store rooted at dir
// and indexes the artifacts already present, verifying nothing up front —
// corruption is detected lazily on Get.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk store: %w", err)
	}
	s := &DiskStore{dir: dir, lens: make(map[string]int64)}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: disk store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || strings.HasSuffix(f.Name(), ".tmp") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			n := info.Size() - int64(len(diskMagic)) - 8 - sha256.Size
			if n < 0 {
				n = 0
			}
			s.lens[f.Name()] = n
			s.bytes += n
		}
	}
	return s, nil
}

func (s *DiskStore) path(id string) string {
	shard := "xx"
	if len(id) >= 2 {
		shard = id[:2]
	}
	return filepath.Join(s.dir, shard, id)
}

// encode frames body as magic || len || body || sha256(body).
func encodeDiskEntry(body []byte) []byte {
	out := make([]byte, 0, len(diskMagic)+8+len(body)+sha256.Size)
	out = append(out, diskMagic...)
	var lenbuf [8]byte
	binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(body)))
	out = append(out, lenbuf[:]...)
	out = append(out, body...)
	sum := sha256.Sum256(body)
	out = append(out, sum[:]...)
	return out
}

// decodeDiskEntry verifies the frame and returns the body, or an error
// describing the corruption.
func decodeDiskEntry(data []byte) ([]byte, error) {
	if len(data) < len(diskMagic)+8+sha256.Size {
		return nil, fmt.Errorf("truncated entry (%d bytes)", len(data))
	}
	if string(data[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("bad magic")
	}
	data = data[len(diskMagic):]
	n := binary.LittleEndian.Uint64(data[:8])
	data = data[8:]
	if uint64(len(data)) != n+sha256.Size {
		return nil, fmt.Errorf("length header %d does not match %d stored bytes", n, len(data)-sha256.Size)
	}
	body, tail := data[:n], data[n:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(tail) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return body, nil
}

// Get implements Store. Corrupt entries are removed and reported as
// misses.
func (s *DiskStore) Get(id string) ([]byte, bool, error) {
	data, err := os.ReadFile(s.path(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("serve: disk store get: %w", err)
	}
	body, derr := decodeDiskEntry(data)
	if derr != nil {
		// Corrupt-entry recovery: drop the file, count it, miss.
		os.Remove(s.path(id))
		s.mu.Lock()
		if n, ok := s.lens[id]; ok {
			s.bytes -= n
			delete(s.lens, id)
		}
		s.corrupt++
		s.mu.Unlock()
		return nil, false, nil
	}
	return body, true, nil
}

// Put implements Store: write-to-temp then rename, so concurrent readers
// see either nothing or a complete verified entry.
func (s *DiskStore) Put(id string, body []byte) error {
	p := s.path(id)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("serve: disk store put: %w", err)
	}
	s.mu.Lock()
	s.tmpSeq++
	tmp := fmt.Sprintf("%s.%d.tmp", p, s.tmpSeq)
	s.mu.Unlock()
	if err := os.WriteFile(tmp, encodeDiskEntry(body), 0o644); err != nil {
		return fmt.Errorf("serve: disk store put: %w", err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: disk store put: %w", err)
	}
	s.mu.Lock()
	if prev, ok := s.lens[id]; ok {
		s.bytes -= prev
	}
	s.lens[id] = int64(len(body))
	s.bytes += int64(len(body))
	s.mu.Unlock()
	return nil
}

// Len implements Store.
func (s *DiskStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.lens)
}

// SizeBytes implements Store.
func (s *DiskStore) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Close implements Store. The files stay on disk; reopening the directory
// with NewDiskStore resumes serving them.
func (s *DiskStore) Close() error { return nil }
