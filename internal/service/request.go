package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"aarc/internal/inputaware"
	"aarc/internal/jsonx"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// The POST bodies of /v1/configure, /v1/configure:batch and /v1/dispatch
// are decoded in one pass over the body: the envelope and its inline
// spec share one jsonx.Scanner, so the spec is never copied out and
// scanned again. The rules are encoding/json's for the wire structs these
// decoders replaced: unknown envelope fields ignored, last duplicate
// wins, null leaves a value alone. A type error inside an inline spec is
// the spec's own error (a batch item's bad spec fails only its slot), as
// it was when the spec was a json.RawMessage decoded afterwards.

// configureRequest is one configure request: exactly one of a built-in
// workload name or an inline spec in the DecodeSpec JSON format, plus the
// per-request knobs. Dispatch requests add a scale and input classes.
type configureRequest struct {
	workload string
	hasSpec  bool
	spec     *workflow.Spec
	specErr  error // the inline spec failed to decode (it is validated with its fingerprint)
	opts     RequestOptions

	scale   float64
	classes []classJSON
}

type classJSON struct {
	name  []byte
	scale float64
}

const (
	reqWorkload = iota
	reqSpec
	reqMethod
	reqSeed
	reqSLO
	reqMaxSamples
	reqMaxSimCost
	reqInputScale
	reqScale
	reqClasses
)

const (
	className = iota
	classScale
)

var (
	requestFields = jsonx.NewFields("workload", "spec", "method", "seed", "slo_ms",
		"max_samples", "max_sim_cost_ms", "input_scale", "scale", "classes")
	classFields = jsonx.NewFields("name", "scale")
	batchFields = jsonx.NewFields("requests")
)

// source resolves the request's spec.
func (cr *configureRequest) source() (*workflow.Spec, error) {
	switch {
	case cr.workload != "" && cr.hasSpec:
		return nil, errors.New("request: give either \"workload\" or \"spec\", not both")
	case cr.workload != "":
		return workloads.ByName(cr.workload)
	case cr.hasSpec:
		return cr.spec, cr.specErr
	default:
		return nil, errors.New("request: missing \"workload\" or \"spec\"")
	}
}

func (cr *configureRequest) inputClasses() []inputaware.Class {
	var out []inputaware.Class
	for _, c := range cr.classes {
		out = append(out, inputaware.Class{Name: string(c.name), Scale: c.scale})
	}
	return out
}

// scan decodes one request object into cr. dispatch selects the dispatch
// vocabulary; a configure request ignores "scale" and "classes" like any
// other unknown member.
func (cr *configureRequest) scan(s *jsonx.Scanner, dispatch bool) {
	if s.Null() || !s.Object() {
		return
	}
	for s.More('}') {
		switch requestFields.Lookup(s.Key()) {
		case reqWorkload:
			scanString(s, &cr.workload)
		case reqSpec:
			cr.hasSpec = true
			cr.spec, cr.specErr = workflow.ScanSpec(s)
		case reqMethod:
			scanString(s, &cr.opts.Method)
		case reqSeed:
			if s.Null() {
				cr.opts.Seed = nil
			} else if v, ok := s.Uint64(); ok {
				if cr.opts.Seed == nil {
					cr.opts.Seed = new(uint64)
				}
				*cr.opts.Seed = v
			}
		case reqSLO:
			s.FloatTo(&cr.opts.SLOMS)
		case reqMaxSamples:
			if !s.Null() {
				if v, ok := s.Int(); ok {
					cr.opts.MaxSamples = v
				}
			}
		case reqMaxSimCost:
			s.FloatTo(&cr.opts.MaxSimCostMS)
		case reqInputScale:
			s.FloatTo(&cr.opts.InputScale)
		case reqScale:
			if dispatch {
				s.FloatTo(&cr.scale)
			} else {
				s.Skip()
			}
		case reqClasses:
			if dispatch {
				scanClasses(s, &cr.classes)
			} else {
				s.Skip()
			}
		default:
			s.Skip()
		}
	}
}

func scanString(s *jsonx.Scanner, dst *string) {
	if s.Null() {
		return
	}
	if b, ok := s.String(); ok {
		*dst = string(b)
	}
}

func scanClasses(s *jsonx.Scanner, dst *[]classJSON) {
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
		c := &v[i]
		if s.Null() || !s.Object() {
			continue
		}
		for s.More('}') {
			switch classFields.Lookup(s.Key()) {
			case className:
				s.BytesTo(&c.name)
			case classScale:
				s.FloatTo(&c.scale)
			default:
				s.Skip()
			}
		}
	}
	*dst = jsonx.Shrink(v, i)
}

// readBody reads a POST body up to maxRequestBody. The buffer starts at
// the declared length, up to 1 MB, so a large spec is read without
// regrowing and a client declaring more than it sends cannot make every
// connection reserve the whole limit. The buffer is made at that size,
// not grown to it: bytes.Buffer.Grow allocates twice in a -race build,
// which the memo hit's allocation pin would see.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var start []byte
	if n := r.ContentLength; n > 0 {
		start = make([]byte, 0, int(min(n, 1<<20))+bytes.MinRead)
	}
	buf := bytes.NewBuffer(start)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody)); err != nil {
		return nil, fmt.Errorf("request: decoding body: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeRequest decodes a configure (dispatch false) or dispatch body.
// Its error is the envelope's; an inline spec's own error is kept in the
// request and surfaces from source.
func decodeRequest(body []byte, dispatch bool) (*configureRequest, error) {
	s := jsonx.NewScanner(body)
	cr := new(configureRequest)
	cr.scan(s, dispatch)
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("request: decoding body: %w", err)
	}
	return cr, nil
}

// readBatch reads and decodes a POST /v1/configure:batch body,
// {"requests": [...]}. A bad inline spec stays in its item; any other
// error fails the batch.
func readBatch(w http.ResponseWriter, r *http.Request) ([]configureRequest, error) {
	body, err := readBody(w, r)
	if err != nil {
		return nil, err
	}
	return decodeBatch(body)
}

func decodeBatch(body []byte) ([]configureRequest, error) {
	s := jsonx.NewScanner(body)
	var reqs []configureRequest
	if !s.Null() && s.Object() {
		for s.More('}') {
			if batchFields.Lookup(s.Key()) != 0 {
				s.Skip()
				continue
			}
			if s.Null() {
				reqs = nil
				continue
			}
			if !s.Array() {
				continue
			}
			i := 0
			for ; s.More(']'); i++ {
				reqs = jsonx.Grow(reqs, i)
				reqs[i].scan(s, false)
			}
			reqs = jsonx.Shrink(reqs, i)
		}
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("request: decoding body: %w", err)
	}
	return reqs, nil
}
