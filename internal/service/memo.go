package service

import (
	"crypto/sha256"
	"hash/maphash"
	"math/rand/v2"
	"sync/atomic"
)

// The raw-body memo answers a repeated POST /v1/configure body before it
// is decoded. The Config is fixed after New, so the same body bytes always
// decode to the same spec and options and hash to the same fingerprint;
// the memo maps a body to that fingerprint, and a hit serves the store's
// bytes for it the way RecommendationJSON does.
//
// Soundness. An entry holds the SHA-256 of the body that was decoded in
// full to produce its fingerprint, and a hit needs SHA-256 equality, so a
// collision of the 64-bit lookup key only costs a fall-through. Only
// successful configures are recorded: a 400 or a failed search never
// reaches the memo. Invalidation, eviction and drift refreshes act on
// the store, and every hit re-reads the store, so none of them needs a
// memo hook: an entry whose fingerprint the store no longer holds falls
// through to the full path.
//
// Cost. Bodies that are never repeated must not pay for a SHA-256 (about
// 390 µs on a 450 KB 1000-node spec, at 1.2 GB/s on a 2-vCPU Xeon).
// Lookups use a 64-bit maphash of the body (7.5 GB/s, 60 µs on the same
// body), and a doorkeeper table of those keys
// (TinyLFU's; Einziger et al., ACM ToS 2017) admits a body, computing
// its SHA-256, only when its key is recorded a second time. Both tables
// are arrays of atomics in memoWays-slot buckets: the miss path takes no
// lock, and two hot bodies whose keys share a bucket do not evict each
// other. The memo retains no body bytes.

// memoWays is the number of slots per bucket in both tables.
const memoWays = 4

type bodyMemo struct {
	seed    maphash.Seed
	mask    uint64                      // bucket index mask
	seen    []atomic.Uint64             // doorkeeper: keys recorded once, not yet admitted
	entries []atomic.Pointer[memoEntry] // admitted bodies
	hashed  atomic.Int64                // SHA-256 computations, hit checks and admissions
}

// memoEntry is immutable once published.
type memoEntry struct {
	key uint64
	sum [sha256.Size]byte
	fp  string
}

// newBodyMemo sizes both tables to at least capacity slots (the service's
// CacheSize), rounded up to a power-of-two number of buckets.
func newBodyMemo(capacity int) *bodyMemo {
	buckets := 1
	for buckets*memoWays < capacity {
		buckets <<= 1
	}
	return &bodyMemo{
		seed:    maphash.MakeSeed(),
		mask:    uint64(buckets - 1),
		seen:    make([]atomic.Uint64, buckets*memoWays),
		entries: make([]atomic.Pointer[memoEntry], buckets*memoWays),
	}
}

// key is the body's 64-bit lookup key under this memo's random seed.
func (m *bodyMemo) key(body []byte) uint64 { return maphash.Bytes(m.seed, body) }

func (m *bodyMemo) bucket(k uint64) int { return int(k&m.mask) * memoWays }

// sum is the SHA-256 that verifies a hit.
func (m *bodyMemo) sum(body []byte) [sha256.Size]byte {
	m.hashed.Add(1)
	return sha256.Sum256(body)
}

// lookup returns the admitted entry under key k, or nil.
func (m *bodyMemo) lookup(k uint64) *memoEntry {
	b := m.bucket(k)
	for i := b; i < b+memoWays; i++ {
		if e := m.entries[i].Load(); e != nil && e.key == k {
			return e
		}
	}
	return nil
}

// record notes that body, under key k, configured successfully as fp. A
// first sighting only marks k in the doorkeeper; a second one computes
// the body's SHA-256 and admits it. Racing records may overwrite each
// other's slots, which costs a later miss and nothing else.
func (m *bodyMemo) record(k uint64, body []byte, fp string) {
	if e := m.lookup(k); e != nil && e.fp == fp {
		return // already admitted, or a colliding body of the same fingerprint
	}
	if !m.seenBefore(k) {
		return
	}
	e := &memoEntry{key: k, sum: m.sum(body), fp: fp}
	b := m.bucket(k)
	slot := -1
	for i := b; i < b+memoWays; i++ {
		old := m.entries[i].Load()
		if old != nil && old.key == k {
			slot = i // a colliding body: the newer one takes the slot
			break
		}
		if old == nil && slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		slot = b + rand.IntN(memoWays)
	}
	m.entries[slot].Store(e)
}

// seenBefore reports whether k is in the doorkeeper, taking it out if
// so (it is about to be admitted); otherwise it marks k, in a free slot
// or over a random one. A key of 0 reads as seen in an empty slot, which
// costs that body one early SHA-256.
func (m *bodyMemo) seenBefore(k uint64) bool {
	b := m.bucket(k)
	free := -1
	for i := b; i < b+memoWays; i++ {
		switch m.seen[i].Load() {
		case k:
			m.seen[i].CompareAndSwap(k, 0)
			return true
		case 0:
			if free < 0 {
				free = i
			}
		}
	}
	if free < 0 {
		free = b + rand.IntN(memoWays)
	}
	m.seen[free].Store(k)
	return false
}

// configureMemo answers a raw POST /v1/configure body from the memo
// under its key k: the stored bytes for the fingerprint the same bytes
// configured as before, with a hit counted. ok is false when the body is
// not admitted, its SHA-256 differs from the entry's, or the store no
// longer holds the fingerprint; the caller then takes the full path.
//
//aarc:hotpath
func (s *Service) configureMemo(k uint64, body []byte) (out []byte, ok bool) {
	e := s.memo.lookup(k)
	if e == nil || s.memo.sum(body) != e.sum {
		return nil, false
	}
	se, ok := s.getStore(e.fp)
	if !ok {
		return nil, false
	}
	s.hits.Add(1)
	s.memoHits.Add(1)
	return se.Body, true
}
