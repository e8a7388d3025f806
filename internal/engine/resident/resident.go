// Package resident is the engine's cross-request, cross-tenant store of
// pre-packed operands: the DNN-serving workload of the paper's introduction
// multiplies many activation matrices against a small set of weight
// matrices, and re-packing the weights on every call wastes exactly the
// DRAM traffic CAKE's block geometry budgets. The store keeps each
// registered operand's packed panels resident under a byte budget:
//
//   - Registration packs once (the caller supplies the packed payload and
//     its footprint) and may evict — strict LRU over unpinned entries — to
//     make room.
//   - In-flight GEMMs pin their operand with Acquire/Handle.Release
//     (refcounted; a pinned entry is never evicted, so compute never reads
//     freed panels).
//   - A registered id that was evicted under budget pressure fails later
//     Acquires with ErrOperandEvicted — distinguishable from an id that was
//     never registered — so servers can re-register instead of mis-serving.
//
// The store holds payloads as opaque values; packing geometry and scalar
// types are the caller's concern (internal/engine pairs each id with its
// per-tier packed panels).
package resident

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors, all wrapped with the offending id; match with errors.Is.
var (
	// ErrExists rejects Register of an id that is currently registered
	// (live or pinned-defunct ids must be Released first).
	ErrExists = errors.New("resident: operand id already registered")
	// ErrNotRegistered reports an id this store has never held.
	ErrNotRegistered = errors.New("resident: operand id not registered")
	// ErrOperandEvicted reports an id that was registered but lost to LRU
	// eviction under the byte budget.
	ErrOperandEvicted = errors.New("resident: operand evicted under byte budget")
	// ErrBudget rejects Register when the operand cannot fit: it is larger
	// than the whole budget, or everything evictable has been evicted and
	// pinned entries still hold too much.
	ErrBudget = errors.New("resident: operand does not fit byte budget")
	// ErrClosed fails every operation after Close.
	ErrClosed = errors.New("resident: store closed")
)

// entry is one registered operand. refs counts in-flight pins; defunct marks
// an entry released (or drained by Close) while pinned — its payload stays
// readable for the in-flight GEMMs and its bytes stay charged until the last
// pin drops.
type entry struct {
	id      string
	payload any
	bytes   int64
	refs    int
	defunct bool
	elem    *list.Element // LRU position; nil once off the live list
}

// Store is the refcounted LRU operand store. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	budget  int64 // ≤0 = unlimited
	bytes   int64 // charged payload bytes, defunct-but-pinned included
	entries map[string]*entry
	lru     *list.List // of *entry; front = most recently used
	evicted map[string]bool
	closed  bool

	hits, misses, evictions int64
	avoidedBytes            int64

	evictHook func(id string, bytes int64)
}

// SetEvictHook installs fn, invoked once per LRU eviction with the victim's
// id and byte footprint. The hook runs outside the store lock (after the
// Register call that evicted), so it may log or count freely, but the
// eviction is already final when it runs. The engine uses it for structured
// eviction logging.
func (s *Store) SetEvictHook(fn func(id string, bytes int64)) {
	s.mu.Lock()
	s.evictHook = fn
	s.mu.Unlock()
}

// New builds a store with the given byte budget; budget ≤ 0 disables the
// budget entirely (nothing is ever evicted).
func New(budget int64) *Store {
	return &Store{
		budget:  budget,
		entries: map[string]*entry{},
		lru:     list.New(),
		evicted: map[string]bool{},
	}
}

// Register stores payload under id, charging bytes against the budget and
// evicting least-recently-used unpinned entries as needed to fit. A live id
// fails with ErrExists — release first, then re-register — and an operand
// that cannot fit even after eviction fails with ErrBudget.
func (s *Store) Register(id string, payload any, bytes int64) error {
	if bytes < 0 {
		bytes = 0
	}
	// Evictions are reported to the hook outside the lock, after they are
	// final — so the hook can log or call anything without deadlocking
	// against the store.
	var victims []*entry
	var hook func(string, int64)
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		hook = s.evictHook
		if s.closed {
			return ErrClosed
		}
		if _, ok := s.entries[id]; ok {
			return fmt.Errorf("%w: %q", ErrExists, id)
		}
		for s.budget > 0 && s.bytes+bytes > s.budget {
			victim := s.oldestUnpinned()
			if victim == nil {
				return fmt.Errorf("%w: %q needs %d bytes, %d of %d already held by pinned operands",
					ErrBudget, id, bytes, s.bytes, s.budget)
			}
			s.evictLocked(victim)
			victims = append(victims, victim)
		}
		e := &entry{id: id, payload: payload, bytes: bytes}
		e.elem = s.lru.PushFront(e)
		s.entries[id] = e
		s.bytes += bytes
		// A re-registration heals the eviction: later Acquires should hit, not
		// report the stale tombstone.
		delete(s.evicted, id)
		return nil
	}()
	if hook != nil {
		for _, v := range victims {
			hook(v.id, v.bytes)
		}
	}
	return err
}

// oldestUnpinned walks the LRU list back-to-front for an evictable victim.
func (s *Store) oldestUnpinned() *entry {
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); e.refs == 0 {
			return e
		}
	}
	return nil
}

// evictLocked drops a live unpinned entry, leaving a tombstone so Acquire
// can tell "evicted" from "never registered".
func (s *Store) evictLocked(e *entry) {
	s.lru.Remove(e.elem)
	e.elem = nil
	delete(s.entries, e.id)
	s.bytes -= e.bytes
	s.evicted[e.id] = true
	s.evictions++
}

// Handle pins one resident operand for the duration of one use. It is a
// value, so pinning allocates nothing. Release it on every path — error and
// panic paths included — or the entry can never be evicted or freed.
type Handle struct {
	s *Store
	e *entry
}

// Payload returns the registered payload; valid until Release.
func (h *Handle) Payload() any { return h.e.payload }

// Release drops the pin. Releasing the same Handle again is a no-op; a
// copy of it must not be released too. The last pin on a defunct entry
// frees its byte charge.
func (h *Handle) Release() {
	s := h.s
	if s == nil {
		return
	}
	e := h.e
	h.s, h.e = nil, nil
	s.mu.Lock()
	defer s.mu.Unlock()
	e.refs--
	if e.refs == 0 && e.defunct {
		s.bytes -= e.bytes
	}
}

// Acquire pins id's payload and marks it most recently used. Counted as a
// hit; a lookup that fails — evicted or never registered — is a miss.
func (s *Store) Acquire(id string) (Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Handle{}, ErrClosed
	}
	e, ok := s.entries[id]
	if !ok {
		s.misses++
		if s.evicted[id] {
			return Handle{}, fmt.Errorf("%w: %q", ErrOperandEvicted, id)
		}
		return Handle{}, fmt.Errorf("%w: %q", ErrNotRegistered, id)
	}
	e.refs++
	s.lru.MoveToFront(e.elem)
	s.hits++
	return Handle{s: s, e: e}, nil
}

// Release deregisters id. An unpinned entry is freed immediately; a pinned
// one turns defunct — in-flight GEMMs keep their panels, the bytes free at
// the last unpin — and either way the id is immediately re-registrable.
// Releasing an already-evicted id clears its tombstone and succeeds.
func (s *Store) Release(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.entries[id]
	if !ok {
		if s.evicted[id] {
			delete(s.evicted, id)
			return nil
		}
		return fmt.Errorf("%w: %q", ErrNotRegistered, id)
	}
	s.lru.Remove(e.elem)
	e.elem = nil
	delete(s.entries, e.id)
	if e.refs > 0 {
		e.defunct = true
		return nil
	}
	s.bytes -= e.bytes
	return nil
}

// Close drains the store: unpinned entries are freed now, pinned entries
// turn defunct and free at their last unpin, and every later operation
// fails with ErrClosed. Idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, e := range s.entries {
		s.lru.Remove(e.elem)
		e.elem = nil
		if e.refs > 0 {
			e.defunct = true
			continue
		}
		s.bytes -= e.bytes
	}
	s.entries = map[string]*entry{}
	s.evicted = map[string]bool{}
}

// AccountAvoided adds n bytes of pack traffic that resident-path GEMMs
// skipped — the store's reason to exist, surfaced as a counter.
func (s *Store) AccountAvoided(n int64) {
	s.mu.Lock()
	s.avoidedBytes += n
	s.mu.Unlock()
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	Entries          int64 // operands currently registered
	Pinned           int64 // of those, pinned by in-flight GEMMs
	Bytes            int64 // charged payload bytes (defunct-but-pinned included)
	Budget           int64 // configured budget; 0 = unlimited
	Hits             int64 // Acquires served
	Misses           int64 // Acquires failed (evicted or unknown id)
	Evictions        int64 // entries lost to budget pressure
	AvoidedPackBytes int64 // pack traffic skipped by resident-path GEMMs
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pinned int64
	for _, e := range s.entries {
		if e.refs > 0 {
			pinned++
		}
	}
	budget := s.budget
	if budget < 0 {
		budget = 0
	}
	return Stats{
		Entries:          int64(len(s.entries)),
		Pinned:           pinned,
		Bytes:            s.bytes,
		Budget:           budget,
		Hits:             s.hits,
		Misses:           s.misses,
		Evictions:        s.evictions,
		AvoidedPackBytes: s.avoidedBytes,
	}
}
