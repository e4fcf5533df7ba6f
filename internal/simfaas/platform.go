// Package simfaas simulates the serverless platform substrate the paper runs
// on (Docker containers with decoupled cpuset/cgroup limits on a 96-core
// host): per-function containers keyed by their resource configuration,
// cold versus warm starts, OOM kills, keep-alive pools, and platform-level
// invocation metrics.
//
// The simulator is deliberately clock-free at this layer: Invoke returns the
// duration an invocation would take; the workflow engine assembles durations
// into a makespan on a simulated clock (with CPU contention applied there).
package simfaas

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// Options configures platform behaviour.
type Options struct {
	// ColdStartBaseMS is the fixed container provisioning latency.
	ColdStartBaseMS float64
	// ColdStartPerGBMS adds per-GB runtime initialization latency (language
	// runtime + snapshot restore grow with the memory footprint).
	ColdStartPerGBMS float64
	// KeepAlive keeps containers warm across invocations; re-invoking the
	// same function at the same configuration skips the cold start, exactly
	// like consecutive probes during a configuration search.
	KeepAlive bool
	// OOMDetectMS is how long a container runs before the OOM killer fires
	// on an under-provisioned invocation.
	OOMDetectMS float64
	// MaxWarmContainers caps the keep-alive pool; when full, the least
	// recently used container is evicted to make room (0 = unlimited).
	MaxWarmContainers int
}

// DefaultOptions mirrors typical container platforms: ~400 ms provisioning,
// ~120 ms/GB init, keep-alive on, OOM detected within 200 ms.
func DefaultOptions() Options {
	return Options{
		ColdStartBaseMS:  400,
		ColdStartPerGBMS: 120,
		KeepAlive:        true,
		OOMDetectMS:      200,
	}
}

// Metrics aggregates platform counters.
type Metrics struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	OOMKills    int
	Evictions   int
}

// FunctionMetrics aggregates per-container-key counters.
type FunctionMetrics struct {
	Invocations int
	ColdStarts  int
	OOMKills    int
}

// Invocation is the outcome of one function invocation on the platform.
type Invocation struct {
	RuntimeMS   float64 // total billed duration including cold start
	ColdStartMS float64
	Cold        bool
	OOM         bool
}

// slot is one container key's state: its per-key counters and, while
// the key holds a warm container, the container's config and its links in
// the keep-alive LRU list. Slots are registered once per key and never
// freed, so a slot index stays valid for the platform's lifetime.
type slot struct {
	fm         FunctionMetrics
	cfg        resources.Config // the warm container's config, if warm
	warm       bool
	prev, next int // LRU neighbours (noSlot at either end), if warm
}

const noSlot = -1

// Platform is a simulated FaaS substrate. It is safe for concurrent use.
//
// Each container key is bound once to a slot (Slot); the per-invocation
// path (InvokeSlot) then indexes the slot slice under one lock and
// allocates nothing. The keep-alive pool is an intrusive doubly linked
// list threaded through the slots, most recently used at the head.
type Platform struct {
	opts Options

	mu         sync.Mutex
	index      map[string]int // container key -> slot
	slots      []slot
	head, tail int // LRU ends, noSlot when the pool is empty
	nwarm      int
	metrics    Metrics
}

// New returns a platform with the given options.
func New(opts Options) *Platform {
	return &Platform{
		opts:  opts,
		index: make(map[string]int),
		head:  noSlot,
		tail:  noSlot,
	}
}

// Slot returns the slot of a container key, registering the key on first
// use. Callers that invoke the same key repeatedly bind it once and pass
// the slot to InvokeSlot.
func (p *Platform) Slot(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.index[key]; ok {
		return i
	}
	i := len(p.slots)
	p.slots = append(p.slots, slot{prev: noSlot, next: noSlot})
	p.index[key] = i
	return i
}

// unlinkLocked takes slot i out of the keep-alive list, if it is there.
// Callers hold p.mu.
func (p *Platform) unlinkLocked(i int) {
	s := &p.slots[i]
	if !s.warm {
		return
	}
	if s.prev != noSlot {
		p.slots[s.prev].next = s.next
	} else {
		p.head = s.next
	}
	if s.next != noSlot {
		p.slots[s.next].prev = s.prev
	} else {
		p.tail = s.prev
	}
	s.warm, s.prev, s.next = false, noSlot, noSlot
	p.nwarm--
}

// storeWarmLocked records slot i as warm at cfg and makes it the most
// recently used container, evicting from the list tail while the pool is
// at capacity. Callers hold p.mu.
func (p *Platform) storeWarmLocked(i int, cfg resources.Config) {
	if p.slots[i].warm {
		p.unlinkLocked(i)
	} else if p.opts.MaxWarmContainers > 0 {
		for p.nwarm >= p.opts.MaxWarmContainers {
			p.unlinkLocked(p.tail)
			p.metrics.Evictions++
		}
	}
	s := &p.slots[i]
	s.cfg, s.warm, s.prev, s.next = cfg, true, noSlot, p.head
	if p.head != noSlot {
		p.slots[p.head].prev = i
	} else {
		p.tail = i
	}
	p.head = i
	p.nwarm++
}

// ColdStartMS returns the provisioning latency for a container of the given
// memory size.
func (p *Platform) ColdStartMS(cfg resources.Config) float64 {
	return p.opts.ColdStartBaseMS + p.opts.ColdStartPerGBMS*cfg.MemMB/1024
}

// Invoke runs one invocation of prof at cfg and input scale, using key to
// identify the container slot (scatter instances of the same function pass
// distinct keys so each gets its own container). A nil rng disables
// measurement noise. OOM kills are reported in-band via the OOM flag (the
// partial duration is still billed); only misuse returns an error.
func (p *Platform) Invoke(key string, prof perfmodel.Profile, cfg resources.Config, scale float64, rng *rand.Rand) (Invocation, error) {
	if err := prof.Validate(); err != nil {
		return Invocation{}, err
	}
	if key == "" {
		key = prof.Name
	}
	return p.InvokeSlot(p.Slot(key), &prof, cfg, scale, rng)
}

// InvokeSlot is Invoke for a key already bound with Slot. It does not
// validate prof: callers pass profiles they validated once up front (the
// workflow runner's plan holds only profiles Spec.Validate accepted). An
// invocation below the profile's OOM floor is killed without drawing from
// rng, and the platform's bookkeeping takes the lock once.
//
//aarc:hotpath
func (p *Platform) InvokeSlot(slot int, prof *perfmodel.Profile, cfg resources.Config, scale float64, rng *rand.Rand) (Invocation, error) {
	if !cfg.Valid() {
		return Invocation{}, fmt.Errorf("simfaas: invalid config %v for %s", cfg, prof.Name) //aarc:coldalloc misuse error, never on a valid invocation
	}
	oom := cfg.MemMB < prof.MinViableMemMB(scale)
	var t float64
	if oom {
		t = prof.OOMPartialMS(cfg, scale)
		if t < p.opts.OOMDetectMS {
			t = p.opts.OOMDetectMS
		}
	} else {
		var err error
		if t, err = prof.Runtime(cfg, scale, rng); err != nil {
			return Invocation{}, err
		}
	}

	p.mu.Lock()
	s := &p.slots[slot]
	cold := !p.opts.KeepAlive || !s.warm || s.cfg != cfg
	p.metrics.Invocations++
	s.fm.Invocations++
	if cold {
		p.metrics.ColdStarts++
		s.fm.ColdStarts++
	} else {
		p.metrics.WarmStarts++
	}
	if oom {
		p.metrics.OOMKills++
		s.fm.OOMKills++
		p.unlinkLocked(slot) // the container died
	} else if p.opts.KeepAlive {
		p.storeWarmLocked(slot, cfg)
	}
	p.mu.Unlock()

	var coldMS float64
	if cold {
		coldMS = p.ColdStartMS(cfg)
	}
	return Invocation{
		RuntimeMS:   coldMS + t,
		ColdStartMS: coldMS,
		Cold:        cold,
		OOM:         oom,
	}, nil
}

// Metrics returns a snapshot of the platform counters.
func (p *Platform) Metrics() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// WarmCount returns the number of warm containers currently held.
func (p *Platform) WarmCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nwarm
}

// FunctionMetricsFor returns a snapshot of one container key's counters.
func (p *Platform) FunctionMetricsFor(key string) FunctionMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.index[key]; ok {
		return p.slots[i].fm
	}
	return FunctionMetrics{}
}

// Flush evicts all warm containers (e.g. between independent experiments).
func (p *Platform) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.head != noSlot {
		p.unlinkLocked(p.head)
	}
}
