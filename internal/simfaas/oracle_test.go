package simfaas

// The map + container/list platform the slot-indexed Platform replaced,
// kept verbatim as the differential oracle for FuzzPlatformDifferential:
// every sequence of Invoke, Flush and metrics reads must give the same
// answers on both.

import (
	"container/list"
	"fmt"
	"math/rand/v2"
	"sync"

	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// oracleContainer is one keep-alive pool entry; entries live on the LRU list
// with the most recently used container at the front.
type oracleContainer struct {
	key string
	cfg resources.Config
}

// oraclePlatform is a simulated FaaS substrate. It is safe for concurrent use.
type oraclePlatform struct {
	opts Options

	mu      sync.Mutex
	warm    map[string]*list.Element // container key -> LRU list element
	lru     *list.List               // of *oracleContainer, front = most recent
	metrics Metrics
	perFunc map[string]*FunctionMetrics
}

// newOracle returns an oracle platform with the given options.
func newOracle(opts Options) *oraclePlatform {
	return &oraclePlatform{
		opts:    opts,
		warm:    make(map[string]*list.Element),
		lru:     list.New(),
		perFunc: make(map[string]*FunctionMetrics),
	}
}

// warmConfigLocked returns the resident warm config for key. Callers hold
// p.mu.
func (p *oraclePlatform) warmConfigLocked(key string) (resources.Config, bool) {
	el, ok := p.warm[key]
	if !ok {
		return resources.Config{}, false
	}
	return el.Value.(*oracleContainer).cfg, true
}

// storeWarmLocked records key as warm at cfg and stamps it most recently
// used, evicting the least recently used containers (list back) when the
// pool is over capacity. O(1) per operation versus the former full-pool
// scan. Callers hold p.mu.
func (p *oraclePlatform) storeWarmLocked(key string, cfg resources.Config) {
	if el, ok := p.warm[key]; ok {
		el.Value.(*oracleContainer).cfg = cfg
		p.lru.MoveToFront(el)
		return
	}
	if p.opts.MaxWarmContainers > 0 {
		for p.lru.Len() >= p.opts.MaxWarmContainers {
			victim := p.lru.Back()
			p.lru.Remove(victim)
			delete(p.warm, victim.Value.(*oracleContainer).key)
			p.metrics.Evictions++
		}
	}
	p.warm[key] = p.lru.PushFront(&oracleContainer{key: key, cfg: cfg})
}

// dropWarmLocked removes a (dead) container from the pool without counting
// an eviction. Callers hold p.mu.
func (p *oraclePlatform) dropWarmLocked(key string) {
	if el, ok := p.warm[key]; ok {
		p.lru.Remove(el)
		delete(p.warm, key)
	}
}

// funcMetricsLocked returns (allocating) the per-key metrics. Callers hold
// p.mu.
func (p *oraclePlatform) funcMetricsLocked(key string) *FunctionMetrics {
	fm, ok := p.perFunc[key]
	if !ok {
		fm = &FunctionMetrics{}
		p.perFunc[key] = fm
	}
	return fm
}

// ColdStartMS returns the provisioning latency for a container of the given
// memory size.
func (p *oraclePlatform) ColdStartMS(cfg resources.Config) float64 {
	return p.opts.ColdStartBaseMS + p.opts.ColdStartPerGBMS*cfg.MemMB/1024
}

// Invoke runs one invocation of prof at cfg and input scale, using key to
// identify the container slot (scatter instances of the same function pass
// distinct keys so each gets its own container). A nil rng disables
// measurement noise. OOM kills are reported in-band via the OOM flag (the
// partial duration is still billed); only misuse returns an error.
func (p *oraclePlatform) Invoke(key string, prof perfmodel.Profile, cfg resources.Config, scale float64, rng *rand.Rand) (Invocation, error) {
	if err := prof.Validate(); err != nil {
		return Invocation{}, err
	}
	if !cfg.Valid() {
		return Invocation{}, fmt.Errorf("simfaas: invalid config %v for %s", cfg, prof.Name)
	}
	if key == "" {
		key = prof.Name
	}

	p.mu.Lock()
	cold := true
	if p.opts.KeepAlive {
		if w, ok := p.warmConfigLocked(key); ok && w == cfg {
			cold = false
		}
	}
	p.metrics.Invocations++
	fm := p.funcMetricsLocked(key)
	fm.Invocations++
	if cold {
		p.metrics.ColdStarts++
		fm.ColdStarts++
	} else {
		p.metrics.WarmStarts++
	}
	p.mu.Unlock()

	var coldMS float64
	if cold {
		coldMS = p.ColdStartMS(cfg)
	}

	t, err := prof.Runtime(cfg, scale, rng)
	if err != nil {
		if perfmodel.IsOOM(err) {
			p.mu.Lock()
			p.metrics.OOMKills++
			p.funcMetricsLocked(key).OOMKills++
			p.dropWarmLocked(key) // the container died
			p.mu.Unlock()
			partial := prof.OOMPartialMS(cfg, scale)
			if partial < p.opts.OOMDetectMS {
				partial = p.opts.OOMDetectMS
			}
			return Invocation{
				RuntimeMS:   coldMS + partial,
				ColdStartMS: coldMS,
				Cold:        cold,
				OOM:         true,
			}, nil
		}
		return Invocation{}, err
	}

	if p.opts.KeepAlive {
		p.mu.Lock()
		p.storeWarmLocked(key, cfg)
		p.mu.Unlock()
	}
	return Invocation{
		RuntimeMS:   coldMS + t,
		ColdStartMS: coldMS,
		Cold:        cold,
	}, nil
}

// Metrics returns a snapshot of the platform counters.
func (p *oraclePlatform) Metrics() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// WarmCount returns the number of warm containers currently held.
func (p *oraclePlatform) WarmCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.warm)
}

// FunctionMetricsFor returns a snapshot of one container key's counters.
func (p *oraclePlatform) FunctionMetricsFor(key string) FunctionMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fm, ok := p.perFunc[key]; ok {
		return *fm
	}
	return FunctionMetrics{}
}

// Flush evicts all warm containers (e.g. between independent experiments).
func (p *oraclePlatform) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.warm = make(map[string]*list.Element)
	p.lru = list.New()
}
