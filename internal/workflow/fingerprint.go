package workflow

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"aarc/internal/dag"
	"aarc/internal/jsonx"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// The canonical encoding reuses the on-disk JSON vocabulary (specJSON and
// friends) but fixes an order the DAG does not: nodes sorted by ID, edges
// sorted lexicographically, and the full per-group base assignment instead
// of the uniform shorthand. Two Specs that describe the same workflow —
// regardless of construction order — canonicalize to the same bytes, and
// two that differ in anything result-affecting (profile, group, edge, SLO,
// base, limits) do not. CanonicalJSON writes this shape by hand;
// DecodeCanonicalSpec reads it back with encoding/json.
type canonicalSpec struct {
	Name   string                `json:"name"`
	SLOMS  float64               `json:"slo_ms"`
	Nodes  []nodeJSON            `json:"nodes"`
	Edges  [][2]string           `json:"edges"`
	Base   map[string]configJSON `json:"base"`
	Limits limitsJSON            `json:"limits"`
}

// CanonicalJSON returns the deterministic JSON encoding of a spec: the
// DecodeSpec vocabulary with nodes and edges sorted and the base assignment
// spelled out per group. It is the preimage of Fingerprint; callers that
// combine a spec with other cache-key material (search options, runner
// seeds) hash over these bytes.
//
// The bytes are exactly json.Marshal of the canonicalSpec value the spec
// maps to (struct fields in declaration order, omitempty fields dropped
// when zero, map keys sorted, an empty edge list as null); they are
// written by hand in one pass because this runs on every configure
// request. A value json.Marshal cannot encode (NaN, ±Inf) is an error.
func CanonicalJSON(spec *Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := spec.G
	n := g.NumNodes()
	// byID is the insertion indices in node ID order; rank inverts it;
	// succ holds one node's successor ranks at a time.
	scratch := make([]int32, 2*n+g.NumEdges())
	byID, rank, succ := scratch[:n], scratch[n:2*n], scratch[2*n:2*n]
	for i := range byID {
		byID[i] = int32(i)
	}
	slices.SortFunc(byID, func(a, b int32) int { return strings.Compare(g.NodeAt(int(a)), g.NodeAt(int(b))) })
	for r, i := range byID {
		rank[i] = int32(r)
	}

	w := canonWriter{b: make([]byte, 0, 256+256*n+32*g.NumEdges())}
	w.raw(`{"name":`)
	w.str(spec.Name)
	w.raw(`,"slo_ms":`)
	w.float(spec.SLOMS)
	w.raw(`,"nodes":[`)
	for i, v := range byID {
		id := g.NodeAt(int(v))
		if i > 0 {
			w.raw(",")
		}
		w.raw(`{"id":`)
		w.str(id)
		if grp := spec.GroupOf(id); grp != id {
			w.raw(`,"group":`)
			w.str(grp)
		}
		p := spec.Profiles[id]
		w.raw(`,"profile":{"cpu_work_ms":`)
		w.float(p.CPUWorkMS)
		w.raw(`,"parallel_frac":`)
		w.float(p.ParallelFrac)
		w.omitZero(`,"max_parallel":`, p.MaxParallel)
		w.omitZero(`,"io_ms":`, p.IOMS)
		w.raw(`,"footprint_mb":`)
		w.float(p.FootprintMB)
		w.raw(`,"min_mem_mb":`)
		w.float(p.MinMemMB)
		w.omitZero(`,"pressure_k":`, p.PressureK)
		w.omitZero(`,"noise_std":`, p.NoiseStd)
		if p.InputSensitive {
			w.raw(`,"input_sensitive":true`)
		}
		w.raw("}}")
	}
	w.raw(`],"edges":`)
	if g.NumEdges() == 0 {
		w.raw("null")
	} else {
		// Nodes go in ID order, so sorting each node's successors by
		// rank sorts the whole edge list lexicographically.
		w.raw("[")
		first := true
		for _, v := range byID {
			succ = succ[:0]
			for _, s := range g.SuccAt(int(v)) {
				succ = append(succ, rank[s])
			}
			slices.Sort(succ)
			for _, r := range succ {
				if !first {
					w.raw(",")
				}
				first = false
				w.raw("[")
				w.str(g.NodeAt(int(v)))
				w.raw(",")
				w.str(g.NodeAt(int(byID[r])))
				w.raw("]")
			}
		}
		w.raw("]")
	}
	w.raw(`,"base":{`)
	groups := make([]string, 0, len(spec.Base))
	for g := range spec.Base {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for i, g := range groups {
		if i > 0 {
			w.raw(",")
		}
		cfg := spec.Base[g]
		w.str(g)
		w.raw(`:{"cpu":`)
		w.float(cfg.CPU)
		w.raw(`,"mem_mb":`)
		w.float(cfg.MemMB)
		w.raw("}")
	}
	lim := spec.Limits
	w.raw(`},"limits":{"min_cpu":`)
	w.float(lim.MinCPU)
	w.raw(`,"max_cpu":`)
	w.float(lim.MaxCPU)
	w.raw(`,"cpu_step":`)
	w.float(lim.CPUStep)
	w.raw(`,"min_mem_mb":`)
	w.float(lim.MinMemMB)
	w.raw(`,"max_mem_mb":`)
	w.float(lim.MaxMemMB)
	w.raw(`,"mem_step_mb":`)
	w.float(lim.MemStepMB)
	w.raw("}}")
	if w.err != nil {
		return nil, fmt.Errorf("workflow %s: canonical JSON: %w", spec.Name, w.err)
	}
	return w.b, nil
}

// canonWriter appends JSON tokens; the first unencodable float sticks.
type canonWriter struct {
	b   []byte
	err error
}

func (w *canonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *canonWriter) str(s string) { w.b = jsonx.AppendString(w.b, s) }

func (w *canonWriter) float(f float64) {
	var err error
	w.b, err = jsonx.AppendFloat(w.b, f)
	if err != nil && w.err == nil {
		w.err = err
	}
}

// omitZero writes an omitempty float member: dropped when it equals zero.
func (w *canonWriter) omitZero(key string, f float64) {
	if f != 0 {
		w.raw(key)
		w.float(f)
	}
}

// DecodeCanonicalSpec parses CanonicalJSON output back into a validated
// Spec. Unlike DecodeSpec's submission format (uniform base config), the
// canonical form spells the base assignment per group, so the round trip
// CanonicalJSON -> DecodeCanonicalSpec -> CanonicalJSON is byte-exact.
// The serving layer persists canonical spec bytes next to each cached
// recommendation and uses this to rebuild evaluation runners after a
// restart.
func DecodeCanonicalSpec(b []byte) (*Spec, error) {
	var cs canonicalSpec
	if err := json.Unmarshal(b, &cs); err != nil {
		return nil, fmt.Errorf("workflow: decoding canonical spec: %w", err)
	}
	g := dag.New()
	profiles := make(map[string]perfmodel.Profile, len(cs.Nodes))
	groups := make(map[string]string)
	for _, n := range cs.Nodes {
		if err := g.AddNode(n.ID); err != nil {
			return nil, err
		}
		profiles[n.ID] = perfmodel.Profile{
			Name:           n.ID,
			CPUWorkMS:      n.Profile.CPUWorkMS,
			ParallelFrac:   n.Profile.ParallelFrac,
			MaxParallel:    n.Profile.MaxParallel,
			IOMS:           n.Profile.IOMS,
			FootprintMB:    n.Profile.FootprintMB,
			MinMemMB:       n.Profile.MinMemMB,
			PressureK:      n.Profile.PressureK,
			NoiseStd:       n.Profile.NoiseStd,
			InputSensitive: n.Profile.InputSensitive,
		}
		if n.Group != "" {
			groups[n.ID] = n.Group
		}
	}
	for _, e := range cs.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	base := make(resources.Assignment, len(cs.Base))
	for grp, c := range cs.Base {
		base[grp] = resources.Config{CPU: c.CPU, MemMB: c.MemMB}
	}
	spec := &Spec{
		Name:     cs.Name,
		G:        g,
		Profiles: profiles,
		Groups:   groups,
		SLOMS:    cs.SLOMS,
		Base:     base,
		Limits: resources.Limits{
			MinCPU: cs.Limits.MinCPU, MaxCPU: cs.Limits.MaxCPU, CPUStep: cs.Limits.CPUStep,
			MinMemMB: cs.Limits.MinMemMB, MaxMemMB: cs.Limits.MaxMemMB, MemStepMB: cs.Limits.MemStepMB,
		},
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Fingerprint returns "sha256:<hex>" over the spec's canonical JSON. It is
// the content-addressed identity of a workflow definition: the serving
// layer keys its recommendation cache on it (combined with the search
// options' own canonical encoding).
func Fingerprint(spec *Spec) (string, error) {
	b, err := CanonicalJSON(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%x", sum), nil
}
