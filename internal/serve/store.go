package serve

// Store is the content-addressed artifact cache backend. Keys are the hex
// digests produced by Key.ID; values are the serialized response bodies
// the server would otherwise recompute. Implementations must be safe for
// concurrent use and must return the exact bytes stored — a backend that
// cannot (corruption, eviction, unavailability) reports a miss or an
// error, never wrong bytes. The server stores JSON objects and serves them
// without decoding them; a body that comes back as anything else is a miss
// it recomputes and overwrites (StatsResponse.StoreMalformed).
//
// The interface is deliberately small so backends stay swappable: the
// daemon ships an in-memory LRU and an on-disk store (a shared one belongs
// to the distributed verification farm, which ROADMAP parks). All backends
// are exercised by one conformance suite (store_conformance_test.go),
// the typed-store-plus-shared-test-suite pattern.
// Callers must treat stored and returned byte slices as immutable;
// backends may alias them.
type Store interface {
	// Get returns the artifact stored under id. ok is false on a miss.
	Get(id string) (body []byte, ok bool, err error)
	// Put stores body under id. Storing the same id again is permitted
	// and must leave some complete body in place (identical requests
	// produce identical bodies, so either write is acceptable).
	Put(id string, body []byte) error
	// Len returns the number of artifacts currently retrievable.
	Len() int
	// SizeBytes returns the total stored body bytes.
	SizeBytes() int64
	// Close releases backend resources. The store is unusable afterwards.
	Close() error
}
