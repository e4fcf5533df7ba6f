package workflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// decodeSpecReflect is the reflection decoder DecodeSpec replaced, kept
// as its differential oracle: json.Decoder into specJSON with unknown
// fields disallowed.
func decodeSpecReflect(r io.Reader) (*Spec, error) {
	var sj specJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("workflow: decoding spec: %w", err)
	}

	g := dag.New()
	profiles := make(map[string]perfmodel.Profile, len(sj.Nodes))
	groups := make(map[string]string)
	for _, n := range sj.Nodes {
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
	for _, e := range sj.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}

	lim := resources.DefaultLimits()
	if sj.Limits != nil {
		lim = resources.Limits{
			MinCPU: sj.Limits.MinCPU, MaxCPU: sj.Limits.MaxCPU, CPUStep: sj.Limits.CPUStep,
			MinMemMB: sj.Limits.MinMemMB, MaxMemMB: sj.Limits.MaxMemMB, MemStepMB: sj.Limits.MemStepMB,
		}
	}

	spec := &Spec{
		Name:     sj.Name,
		G:        g,
		Profiles: profiles,
		Groups:   groups,
		SLOMS:    sj.SLOMS,
		Limits:   lim,
	}
	base := resources.Config{CPU: sj.Base.CPU, MemMB: sj.Base.MemMB}
	spec.Base = resources.Uniform(spec.FunctionGroups(), base)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// canonicalJSONReflect is the reflection encoder CanonicalJSON replaced,
// kept as its differential oracle: json.Marshal of the canonicalSpec.
func canonicalJSONReflect(spec *Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cs := canonicalSpec{
		Name:  spec.Name,
		SLOMS: spec.SLOMS,
		Base:  make(map[string]configJSON, len(spec.Base)),
	}
	ids := append([]string(nil), spec.G.Nodes()...)
	sort.Strings(ids)
	for _, id := range ids {
		p := spec.Profiles[id]
		n := nodeJSON{
			ID: id,
			Profile: profileJSON{
				CPUWorkMS:      p.CPUWorkMS,
				ParallelFrac:   p.ParallelFrac,
				MaxParallel:    p.MaxParallel,
				IOMS:           p.IOMS,
				FootprintMB:    p.FootprintMB,
				MinMemMB:       p.MinMemMB,
				PressureK:      p.PressureK,
				NoiseStd:       p.NoiseStd,
				InputSensitive: p.InputSensitive,
			},
		}
		if grp := spec.GroupOf(id); grp != id {
			n.Group = grp
		}
		cs.Nodes = append(cs.Nodes, n)
	}
	for _, from := range ids {
		for _, to := range spec.G.Succ(from) {
			cs.Edges = append(cs.Edges, [2]string{from, to})
		}
	}
	sort.Slice(cs.Edges, func(i, j int) bool {
		if cs.Edges[i][0] != cs.Edges[j][0] {
			return cs.Edges[i][0] < cs.Edges[j][0]
		}
		return cs.Edges[i][1] < cs.Edges[j][1]
	})
	for g, cfg := range spec.Base {
		cs.Base[g] = configJSON{CPU: cfg.CPU, MemMB: cfg.MemMB}
	}
	lim := spec.Limits
	cs.Limits = limitsJSON{
		MinCPU: lim.MinCPU, MaxCPU: lim.MaxCPU, CPUStep: lim.CPUStep,
		MinMemMB: lim.MinMemMB, MaxMemMB: lim.MaxMemMB, MemStepMB: lim.MemStepMB,
	}
	// encoding/json writes struct fields in declaration order and string-keyed
	// maps sorted by key, so the bytes are a pure function of the spec.
	return json.Marshal(cs)
}

// validateReference is Spec.Validate before its group checks became one
// unsorted pass: the oracle for which violation an invalid spec reports.
func validateReference(s *Spec) error {
	if s.Name == "" {
		return errors.New("workflow: spec needs a name")
	}
	if s.G == nil {
		return errors.New("workflow: spec needs a DAG")
	}
	if err := s.G.Validate(); err != nil {
		return fmt.Errorf("workflow %s: %w", s.Name, err)
	}
	if math.IsNaN(s.SLOMS) || math.IsInf(s.SLOMS, 0) {
		return fmt.Errorf("workflow %s: non-finite SLOMS %v", s.Name, s.SLOMS)
	}
	if s.SLOMS <= 0 {
		return fmt.Errorf("workflow %s: non-positive SLO %v", s.Name, s.SLOMS)
	}
	if err := s.Limits.Validate(); err != nil {
		return fmt.Errorf("workflow %s: %w", s.Name, err)
	}
	for _, id := range s.G.Nodes() {
		p, ok := s.Profiles[id]
		if !ok {
			return fmt.Errorf("workflow %s: node %q has no profile", s.Name, id)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workflow %s: node %q: %w", s.Name, id, err)
		}
	}
	for _, g := range s.FunctionGroups() {
		cfg, ok := s.Base[g]
		if !ok {
			return fmt.Errorf("workflow %s: group %q has no base config", s.Name, g)
		}
		if math.IsNaN(cfg.CPU) || math.IsInf(cfg.CPU, 0) || math.IsNaN(cfg.MemMB) || math.IsInf(cfg.MemMB, 0) {
			return fmt.Errorf("workflow %s: group %q base config %v is not finite", s.Name, g, cfg)
		}
		if !cfg.Valid() || !s.Limits.Contains(cfg) {
			return fmt.Errorf("workflow %s: group %q base config %v invalid or outside limits", s.Name, g, cfg)
		}
	}
	nodes := make([]string, 0, len(s.Groups))
	for node := range s.Groups {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		g := s.Groups[node]
		if !s.G.HasNode(node) {
			return fmt.Errorf("workflow %s: group mapping for unknown node %q", s.Name, node)
		}
		if g == "" {
			return fmt.Errorf("workflow %s: empty group for node %q", s.Name, node)
		}
	}
	return nil
}
