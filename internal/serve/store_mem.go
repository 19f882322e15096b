package serve

import (
	"container/list"
	"sync"
)

// MemStore is the in-memory backend: a byte-budgeted LRU. Get refreshes
// recency; Put evicts least-recently-used artifacts until the new body
// fits. A single artifact larger than the whole budget is refused (stored
// nowhere) rather than evicting the entire cache for one entry.
type MemStore struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List // front = most recent; values are *memEntry
	entries map[string]*list.Element
}

type memEntry struct {
	id   string
	body []byte
}

// DefaultMemBudget bounds the in-memory store when the caller passes a
// non-positive budget: 256 MiB, roughly 10^5 compiled kernels.
const DefaultMemBudget = 256 << 20

// NewMemStore creates an LRU store holding at most budget body bytes
// (non-positive: DefaultMemBudget).
func NewMemStore(budget int64) *MemStore {
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	return &MemStore{
		budget:  budget,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get implements Store.
func (s *MemStore) Get(id string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[id]
	if !ok {
		return nil, false, nil
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).body, true, nil
}

// Put implements Store.
func (s *MemStore) Put(id string, body []byte) error {
	n := int64(len(body))
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.budget {
		return nil
	}
	if el, ok := s.entries[id]; ok {
		e := el.Value.(*memEntry)
		s.bytes += n - int64(len(e.body))
		e.body = body
		s.order.MoveToFront(el)
	} else {
		s.entries[id] = s.order.PushFront(&memEntry{id: id, body: body})
		s.bytes += n
	}
	for s.bytes > s.budget {
		back := s.order.Back()
		e := back.Value.(*memEntry)
		s.order.Remove(back)
		delete(s.entries, e.id)
		s.bytes -= int64(len(e.body))
	}
	return nil
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// SizeBytes implements Store.
func (s *MemStore) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]*list.Element)
	s.order.Init()
	s.bytes = 0
	return nil
}
