package workflow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"aarc/internal/dag"
	"aarc/internal/jsonx"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// LoadSpec reads a JSON workflow definition from a file (see DecodeSpec for
// the format).
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSpec(f)
}

// specJSON is the on-disk workflow definition format accepted by
// DecodeSpec: the shape a developer submits to the platform (step ❶ of
// Fig. 4), with profile metadata standing in for real function code.
//
//	{
//	  "name": "my-workflow",
//	  "slo_ms": 120000,
//	  "nodes": [
//	    {"id": "start", "profile": {...}},
//	    {"id": "work_1", "group": "work", "profile": {...}}
//	  ],
//	  "edges": [["start", "work_1"]],
//	  "base": {"cpu": 4, "mem_mb": 4096},
//	  "limits": {...}          // optional, defaults to the paper grid
//	}
type specJSON struct {
	Name   string      `json:"name"`
	SLOMS  float64     `json:"slo_ms"`
	Nodes  []nodeJSON  `json:"nodes"`
	Edges  [][2]string `json:"edges"`
	Base   configJSON  `json:"base"`
	Limits *limitsJSON `json:"limits,omitempty"`
}

type nodeJSON struct {
	ID      string      `json:"id"`
	Group   string      `json:"group,omitempty"`
	Profile profileJSON `json:"profile"`
}

type profileJSON struct {
	CPUWorkMS      float64 `json:"cpu_work_ms"`
	ParallelFrac   float64 `json:"parallel_frac"`
	MaxParallel    float64 `json:"max_parallel,omitempty"`
	IOMS           float64 `json:"io_ms,omitempty"`
	FootprintMB    float64 `json:"footprint_mb"`
	MinMemMB       float64 `json:"min_mem_mb"`
	PressureK      float64 `json:"pressure_k,omitempty"`
	NoiseStd       float64 `json:"noise_std,omitempty"`
	InputSensitive bool    `json:"input_sensitive,omitempty"`
}

type configJSON struct {
	CPU   float64 `json:"cpu"`
	MemMB float64 `json:"mem_mb"`
}

type limitsJSON struct {
	MinCPU    float64 `json:"min_cpu"`
	MaxCPU    float64 `json:"max_cpu"`
	CPUStep   float64 `json:"cpu_step"`
	MinMemMB  float64 `json:"min_mem_mb"`
	MaxMemMB  float64 `json:"max_mem_mb"`
	MemStepMB float64 `json:"mem_step_mb"`
}

// DecodeSpec reads r to the end, parses the JSON workflow definition at
// its start and validates it. The decoding rules are encoding/json's for
// the specJSON struct with unknown fields disallowed (see package jsonx):
// DecodeSpec accepts exactly the inputs json.Decoder accepted, decodes
// them to the same spec, and ignores bytes after the first JSON value.
func DecodeSpec(r io.Reader) (*Spec, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("workflow: reading spec: %w", err)
	}
	spec, err := ScanSpec(jsonx.NewScanner(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ScanSpec decodes the spec value at the scanner's position, in the
// DecodeSpec format, and builds it without validating it: CanonicalJSON,
// and so every fingerprint, validates the spec, and a caller that uses
// the spec before or without one calls Spec.Validate itself. A type error
// inside the value is returned here and not left on the scanner, so a
// request decoder that embeds a spec can keep scanning past a bad one; a
// syntax error stops the scanner and is returned too.
func ScanSpec(s *jsonx.Scanner) (*Spec, error) {
	d := docPool.Get().(*specDoc)
	defer func() {
		d.reset()
		docPool.Put(d)
	}()
	outer := s.SwapTypeErr(nil)
	d.scan(s)
	err := s.SwapTypeErr(outer)
	if serr := s.SyntaxErr(); serr != nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("workflow: decoding spec: %w", err)
	}
	return d.build()
}

// docPool keeps decoded documents, so a request's node and edge slices
// reuse the arrays an earlier request grew.
var docPool = sync.Pool{New: func() any { return new(specDoc) }}

// reset zeroes the doc for its next decode. The node and edge arrays are
// cleared to their capacity, not their length: jsonx.Grow reuses elements
// past the length, so a stale one would bleed into the next decode, and
// the byte slices alias the request body they came from.
func (d *specDoc) reset() {
	nodes, edges := d.nodes[:cap(d.nodes)], d.edges[:cap(d.edges)]
	clear(nodes)
	clear(edges)
	*d = specDoc{nodes: nodes[:0], edges: edges[:0], pairs: d.pairs[:0]}
}

// specDoc is a spec as decoded, before it is built into a Spec: the
// specJSON vocabulary with strings left as bytes of the input, so edge
// endpoints are resolved to node indices without a string each.
type specDoc struct {
	name   []byte
	sloMS  float64
	nodes  []nodeDoc
	edges  [][2][]byte
	base   configJSON
	limits *limitsJSON
	pairs  [][2]int32 // build's scratch: edges as node insertion indices
}

type nodeDoc struct {
	id, group []byte
	profile   profileJSON
}

const (
	specName = iota
	specSLO
	specNodes
	specEdges
	specBase
	specLimits
)

const (
	nodeID = iota
	nodeGroup
	nodeProfile
)

const (
	profCPUWork = iota
	profParallelFrac
	profMaxParallel
	profIO
	profFootprint
	profMinMem
	profPressureK
	profNoiseStd
	profInputSensitive
)

const (
	cfgCPU = iota
	cfgMem
)

const (
	limMinCPU = iota
	limMaxCPU
	limCPUStep
	limMinMem
	limMaxMem
	limMemStep
)

// Key tables, in the order of the constants above; the names are the
// json tags of specJSON and friends.
var (
	specFields    = jsonx.NewFields("name", "slo_ms", "nodes", "edges", "base", "limits")
	nodeFields    = jsonx.NewFields("id", "group", "profile")
	profileFields = jsonx.NewFields("cpu_work_ms", "parallel_frac", "max_parallel", "io_ms",
		"footprint_mb", "min_mem_mb", "pressure_k", "noise_std", "input_sensitive")
	configFields = jsonx.NewFields("cpu", "mem_mb")
	limitsFields = jsonx.NewFields("min_cpu", "max_cpu", "cpu_step", "min_mem_mb", "max_mem_mb", "mem_step_mb")
)

// unknownField records encoding/json's DisallowUnknownFields error and
// skips the member's value.
func unknownField(s *jsonx.Scanner, key []byte) {
	s.Mismatch("unknown field %q", key)
}

func (d *specDoc) scan(s *jsonx.Scanner) {
	if s.Null() || !s.Object() {
		return
	}
	for s.More('}') {
		key := s.Key()
		switch specFields.Lookup(key) {
		case specName:
			s.BytesTo(&d.name)
		case specSLO:
			s.FloatTo(&d.sloMS)
		case specNodes:
			scanNodes(s, &d.nodes)
		case specEdges:
			scanEdges(s, &d.edges)
		case specBase:
			scanConfig(s, &d.base)
		case specLimits:
			if s.Null() {
				d.limits = nil
				continue
			}
			if d.limits == nil {
				d.limits = new(limitsJSON)
			}
			scanLimits(s, d.limits)
		default:
			unknownField(s, key)
		}
	}
}

func scanNodes(s *jsonx.Scanner, dst *[]nodeDoc) {
	if s.Null() {
		*dst = nil
		return
	}
	if !s.Array() {
		return
	}
	v, i := *dst, 0
	for ; s.More(']'); i++ {
		v = jsonx.Grow(v, i)
		scanNode(s, &v[i])
	}
	*dst = jsonx.Shrink(v, i)
}

func scanNode(s *jsonx.Scanner, n *nodeDoc) {
	if s.Null() || !s.Object() {
		return
	}
	for s.More('}') {
		key := s.Key()
		switch nodeFields.Lookup(key) {
		case nodeID:
			s.BytesTo(&n.id)
		case nodeGroup:
			s.BytesTo(&n.group)
		case nodeProfile:
			scanProfile(s, &n.profile)
		default:
			unknownField(s, key)
		}
	}
}

func scanProfile(s *jsonx.Scanner, p *profileJSON) {
	if s.Null() || !s.Object() {
		return
	}
	for s.More('}') {
		key := s.Key()
		switch profileFields.Lookup(key) {
		case profCPUWork:
			s.FloatTo(&p.CPUWorkMS)
		case profParallelFrac:
			s.FloatTo(&p.ParallelFrac)
		case profMaxParallel:
			s.FloatTo(&p.MaxParallel)
		case profIO:
			s.FloatTo(&p.IOMS)
		case profFootprint:
			s.FloatTo(&p.FootprintMB)
		case profMinMem:
			s.FloatTo(&p.MinMemMB)
		case profPressureK:
			s.FloatTo(&p.PressureK)
		case profNoiseStd:
			s.FloatTo(&p.NoiseStd)
		case profInputSensitive:
			if s.Null() {
				continue
			}
			if b, ok := s.Bool(); ok {
				p.InputSensitive = b
			}
		default:
			unknownField(s, key)
		}
	}
}

// scanEdges decodes [][2]string: extra endpoints are skipped unread and
// missing ones are zeroed, as for a Go array.
func scanEdges(s *jsonx.Scanner, dst *[][2][]byte) {
	if s.Null() {
		*dst = nil
		return
	}
	if !s.Array() {
		return
	}
	v, i := *dst, 0
	for ; s.More(']'); i++ {
		v = jsonx.Grow(v, i)
		e := &v[i]
		if s.Null() || !s.Array() {
			continue
		}
		j := 0
		for ; s.More(']'); j++ {
			if j < len(e) {
				s.BytesTo(&e[j])
			} else {
				s.Skip()
			}
		}
		for ; j < len(e); j++ {
			e[j] = nil
		}
	}
	*dst = jsonx.Shrink(v, i)
}

func scanConfig(s *jsonx.Scanner, c *configJSON) {
	if s.Null() || !s.Object() {
		return
	}
	for s.More('}') {
		key := s.Key()
		switch configFields.Lookup(key) {
		case cfgCPU:
			s.FloatTo(&c.CPU)
		case cfgMem:
			s.FloatTo(&c.MemMB)
		default:
			unknownField(s, key)
		}
	}
}

func scanLimits(s *jsonx.Scanner, l *limitsJSON) {
	if !s.Object() {
		return
	}
	for s.More('}') {
		key := s.Key()
		switch limitsFields.Lookup(key) {
		case limMinCPU:
			s.FloatTo(&l.MinCPU)
		case limMaxCPU:
			s.FloatTo(&l.MaxCPU)
		case limCPUStep:
			s.FloatTo(&l.CPUStep)
		case limMinMem:
			s.FloatTo(&l.MinMemMB)
		case limMaxMem:
			s.FloatTo(&l.MaxMemMB)
		case limMemStep:
			s.FloatTo(&l.MemStepMB)
		default:
			unknownField(s, key)
		}
	}
}

// build turns the decoded document into a Spec, unvalidated.
func (d *specDoc) build() (*Spec, error) {
	g := dag.NewWithCapacity(len(d.nodes))
	profiles := make(map[string]perfmodel.Profile, len(d.nodes))
	groups := make(map[string]string, len(d.nodes))
	// Scatter instances share a group name: one string per distinct name.
	names := make(map[string]string)
	for i := range d.nodes {
		n := &d.nodes[i]
		id := string(n.id)
		if err := g.AddNode(id); err != nil {
			return nil, err
		}
		p := &n.profile
		profiles[id] = perfmodel.Profile{
			Name:           id,
			CPUWorkMS:      p.CPUWorkMS,
			ParallelFrac:   p.ParallelFrac,
			MaxParallel:    p.MaxParallel,
			IOMS:           p.IOMS,
			FootprintMB:    p.FootprintMB,
			MinMemMB:       p.MinMemMB,
			PressureK:      p.PressureK,
			NoiseStd:       p.NoiseStd,
			InputSensitive: p.InputSensitive,
		}
		if len(n.group) > 0 {
			grp, ok := names[string(n.group)]
			if !ok {
				grp = string(n.group)
				names[grp] = grp
			}
			groups[id] = grp
		}
	}
	pairs := d.pairs[:0]
	for _, e := range d.edges {
		from, okf := g.IndexOf(e[0])
		to, okt := g.IndexOf(e[1])
		if !okf || !okt {
			// The edges before this one go in first, so a duplicate or a
			// self loop among them is reported ahead of the unknown node,
			// as one AddEdge per edge would.
			if err := g.AddEdges(pairs); err != nil {
				return nil, err
			}
			unknown := e[0]
			if okf {
				unknown = e[1]
			}
			return nil, fmt.Errorf("%w: %q", dag.ErrUnknownNode, unknown)
		}
		pairs = append(pairs, [2]int32{from, to})
	}
	d.pairs = pairs
	if err := g.AddEdges(pairs); err != nil {
		return nil, err
	}

	lim := resources.DefaultLimits()
	if l := d.limits; l != nil {
		lim = resources.Limits{
			MinCPU: l.MinCPU, MaxCPU: l.MaxCPU, CPUStep: l.CPUStep,
			MinMemMB: l.MinMemMB, MaxMemMB: l.MaxMemMB, MemStepMB: l.MemStepMB,
		}
	}
	spec := &Spec{
		Name:     string(d.name),
		G:        g,
		Profiles: profiles,
		Groups:   groups,
		SLOMS:    d.sloMS,
		Limits:   lim,
	}
	base := resources.Config{CPU: d.base.CPU, MemMB: d.base.MemMB}
	spec.Base = resources.Uniform(spec.FunctionGroups(), base)
	return spec, nil
}

// EncodeSpec writes the spec in the DecodeSpec JSON format. The uniform base
// configuration is taken from the first group (EncodeSpec is intended for
// specs built with a uniform base, as DecodeSpec produces).
func EncodeSpec(w io.Writer, spec *Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	sj := specJSON{
		Name:  spec.Name,
		SLOMS: spec.SLOMS,
	}
	for _, id := range spec.G.Nodes() {
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
		if grp := spec.Groups[id]; grp != "" && grp != id {
			n.Group = grp
		}
		sj.Nodes = append(sj.Nodes, n)
	}
	for _, from := range spec.G.Nodes() {
		for _, to := range spec.G.Succ(from) {
			sj.Edges = append(sj.Edges, [2]string{from, to})
		}
	}
	if len(spec.FunctionGroups()) > 0 {
		b := spec.Base[spec.FunctionGroups()[0]]
		sj.Base = configJSON{CPU: b.CPU, MemMB: b.MemMB}
	}
	lim := spec.Limits
	sj.Limits = &limitsJSON{
		MinCPU: lim.MinCPU, MaxCPU: lim.MaxCPU, CPUStep: lim.CPUStep,
		MinMemMB: lim.MinMemMB, MaxMemMB: lim.MaxMemMB, MemStepMB: lim.MemStepMB,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sj)
}
