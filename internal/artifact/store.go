// Package artifact implements the shared content-addressed build cache of
// the evaluation pipeline: built OS images addressed by the digest of
// their build-stage configuration (configspace.Config.CompileKey), stored
// in per-host partitions so every worker on a simulated host shares one
// cache instead of carrying a private "previous image" slot.
//
// Determinism is the design constraint, as everywhere in Wayfinder: the
// store performs no locking and tolerates no concurrent access. The engine
// guarantees all lookups, puts, and evictions happen coordinator-side in
// canonical observation order, which makes every cache outcome — and
// therefore every session report — a pure function of (seed, workers,
// staleness, hosts) rather than of goroutine scheduling.
package artifact

import (
	"container/list"
	"fmt"
)

// Artifact is one cached build product.
type Artifact struct {
	// Key is the content digest of the build-stage configuration.
	Key uint64
	// Host is the partition the artifact lives in.
	Host int
	// Builder is the worker index that produced (or last refreshed) it.
	Builder int
	// ReadySec is the virtual time its build (or fetch) completed.
	ReadySec float64
}

// Locality classifies a Lookup outcome.
type Locality int

const (
	// Miss: no partition holds the artifact — a full build is needed.
	Miss Locality = iota
	// LocalHit: the requesting host's partition holds it — a store fetch.
	LocalHit
	// RemoteHit: another host's partition holds it — fetch plus a
	// cross-host transfer.
	RemoteHit
)

// String names the locality.
func (l Locality) String() string {
	switch l {
	case LocalHit:
		return "local"
	case RemoteHit:
		return "remote"
	default:
		return "miss"
	}
}

// Stats are the store's monotone counters.
type Stats struct {
	Hits       int // same-host lookups served
	RemoteHits int // lookups served from another host's partition
	Misses     int // lookups no partition could serve
	Puts       int // inserts and refreshes
	Evictions  int // LRU evictions forced by the capacity bound
}

// Store is an LRU-bounded content-addressed artifact store partitioned by
// host. Partition capacity models the per-host image-cache disk budget:
// beyond it, the least-recently-used artifact of that partition is
// evicted. A capacity of 0 or below means unbounded.
type Store struct {
	parts []partition
	cap   int
	stats Stats
}

// partition is one host's slice of the store: a digest index over an LRU
// list (front = most recently used). list.Element values are Artifact.
type partition struct {
	byKey map[uint64]*list.Element
	order *list.List
}

// NewStore returns a store with one partition per host.
func NewStore(hosts, capacityPerHost int) *Store {
	if hosts < 1 {
		hosts = 1
	}
	s := &Store{parts: make([]partition, hosts), cap: capacityPerHost}
	for i := range s.parts {
		s.parts[i] = partition{byKey: map[uint64]*list.Element{}, order: list.New()}
	}
	return s
}

// Hosts returns the partition count.
func (s *Store) Hosts() int { return len(s.parts) }

// Len returns the number of artifacts in a host's partition.
func (s *Store) Len(host int) int { return len(s.part(host).byKey) }

// Stats returns the counters.
func (s *Store) Stats() Stats { return s.stats }

func (s *Store) part(host int) *partition {
	if host < 0 || host >= len(s.parts) {
		panic(fmt.Sprintf("artifact: host %d outside the %d-partition store", host, len(s.parts)))
	}
	return &s.parts[host]
}

// Lookup resolves a digest for a worker on the given host: its own
// partition first, then the other partitions in ascending host order (the
// deterministic tie-break when several hosts hold the artifact). A hit
// refreshes the artifact's recency in the partition that holds it.
func (s *Store) Lookup(host int, key uint64) (Artifact, Locality) {
	if el, ok := s.part(host).touch(key); ok {
		s.stats.Hits++
		return el, LocalHit
	}
	for h := range s.parts {
		if h == host {
			continue
		}
		if el, ok := s.parts[h].touch(key); ok {
			s.stats.RemoteHits++
			return el, RemoteHit
		}
	}
	s.stats.Misses++
	return Artifact{}, Miss
}

// Contains reports whether the host's partition holds the digest, without
// touching recency or counters — the read-only probe dispatch policies
// use, so a placement question never perturbs a later lookup's outcome.
func (s *Store) Contains(host int, key uint64) bool {
	_, ok := s.part(host).byKey[key]
	return ok
}

// ClearHost empties a host's partition — the artifact loss of a host-down
// fault — and returns how many artifacts were lost. Counters are
// unchanged: loss is not eviction, and the monotone stats keep describing
// lookup traffic only.
func (s *Store) ClearHost(host int) int {
	p := s.part(host)
	n := len(p.byKey)
	p.byKey = map[uint64]*list.Element{}
	p.order.Init()
	return n
}

// touch returns the partition's artifact for key, moving it to the front
// of the LRU order.
func (p *partition) touch(key uint64) (Artifact, bool) {
	el, ok := p.byKey[key]
	if !ok {
		return Artifact{}, false
	}
	p.order.MoveToFront(el)
	return el.Value.(Artifact), true
}

// State is a serializable image of a store: per-partition artifact lists
// in LRU order (most recent first) plus the counters. It is the unit of
// session checkpointing — a restored store resumes with identical lookup,
// recency, and eviction behavior.
type State struct {
	// Partitions lists each host's artifacts front-to-back (most recently
	// used first).
	Partitions [][]Artifact `json:"partitions"`
	// Capacity is the per-host capacity bound the store ran with.
	Capacity int `json:"capacity"`
	// Stats are the monotone counters at checkpoint time.
	Stats Stats `json:"stats"`
}

// Snapshot captures the store's full state.
func (s *Store) Snapshot() *State {
	st := &State{Partitions: make([][]Artifact, len(s.parts)), Capacity: s.cap, Stats: s.stats}
	for h := range s.parts {
		arts := make([]Artifact, 0, s.parts[h].order.Len())
		for el := s.parts[h].order.Front(); el != nil; el = el.Next() {
			arts = append(arts, el.Value.(Artifact))
		}
		st.Partitions[h] = arts
	}
	return st
}

// Check reports whether the state can be restored as a store of the
// given partition count: one partition per host, each artifact in its
// own host's partition, at most once.
func (st *State) Check(hosts int) error {
	if len(st.Partitions) != hosts {
		return fmt.Errorf("artifact: %d partitions, want %d", len(st.Partitions), hosts)
	}
	for h, arts := range st.Partitions {
		seen := make(map[uint64]bool, len(arts))
		for _, a := range arts {
			if a.Host != h {
				return fmt.Errorf("artifact: partition %d holds artifact %x of host %d", h, a.Key, a.Host)
			}
			if seen[a.Key] {
				return fmt.Errorf("artifact: partition %d holds artifact %x twice", h, a.Key)
			}
			seen[a.Key] = true
		}
	}
	return nil
}

// Restore rebuilds a store from a snapshot, reproducing partition
// contents, LRU order, and counters exactly.
func Restore(st *State) *Store {
	s := NewStore(len(st.Partitions), st.Capacity)
	for h, arts := range st.Partitions {
		p := s.part(h)
		// PushBack in front-to-back order reproduces the recency list.
		for _, a := range arts {
			p.byKey[a.Key] = p.order.PushBack(a)
		}
	}
	s.stats = st.Stats
	return s
}

// Put inserts the artifact into its host's partition (or refreshes the
// existing entry's metadata and recency), evicting the partition's
// least-recently-used artifact when the capacity bound is exceeded.
func (s *Store) Put(a Artifact) {
	p := s.part(a.Host)
	s.stats.Puts++
	if el, ok := p.byKey[a.Key]; ok {
		el.Value = a
		p.order.MoveToFront(el)
		return
	}
	p.byKey[a.Key] = p.order.PushFront(a)
	if s.cap > 0 && p.order.Len() > s.cap {
		lru := p.order.Back()
		p.order.Remove(lru)
		delete(p.byKey, lru.Value.(Artifact).Key)
		s.stats.Evictions++
	}
}
