package service

import (
	"sort"
	"strconv"

	"aarc/internal/jsonx"
)

// The miss path's two documents — the recommendation body and its
// entryMeta sidecar — are written by hand, byte for byte what json.Marshal
// writes for them: fields in declaration order, omitempty fields left out
// when zero, map keys sorted, strings and floats through jsonx.
// FuzzMissBodiesDifferential holds both encoders to json.Marshal.

// jsonWriter appends JSON tokens to b and keeps the first error (a
// non-finite float), which result then returns instead of the bytes.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string)  { w.b = append(w.b, s...) }
func (w *jsonWriter) str(s string)  { w.b = jsonx.AppendString(w.b, s) }
func (w *jsonWriter) int(i int64)   { w.b = strconv.AppendInt(w.b, i, 10) }
func (w *jsonWriter) uint(u uint64) { w.b = strconv.AppendUint(w.b, u, 10) }
func (w *jsonWriter) bool(v bool)   { w.b = strconv.AppendBool(w.b, v) }
func (w *jsonWriter) float(f float64) {
	if w.err == nil {
		w.b, w.err = jsonx.AppendFloat(w.b, f)
	}
}

func (w *jsonWriter) result() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// marshalRecommendation encodes rec as json.Marshal(rec) does.
func marshalRecommendation(rec *Recommendation) ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, 192+64*len(rec.Assignment))}
	w.raw(`{"fingerprint":`)
	w.str(rec.Fingerprint)
	w.raw(`,"workflow":`)
	w.str(rec.Workflow)
	w.raw(`,"method":`)
	w.str(rec.Method)
	w.raw(`,"slo_ms":`)
	w.float(rec.SLOMS)
	w.raw(`,"assignment":`)
	w.assignment(rec.Assignment)
	w.raw(`,"samples":`)
	w.int(int64(rec.Samples))
	w.raw(`,"search_runtime_ms":`)
	w.float(rec.SearchRuntimeMS)
	w.raw(`,"search_cost":`)
	w.float(rec.SearchCost)
	w.raw(`,"final":{"e2e_ms":`)
	w.float(rec.Final.E2EMS)
	w.raw(`,"cost":`)
	w.float(rec.Final.Cost)
	w.raw(`,"oom":`)
	w.bool(rec.Final.OOM)
	w.raw(`},"slo_compliant":`)
	w.bool(rec.SLOCompliant)
	w.raw(`}`)
	return w.result()
}

// assignment writes a wire assignment with its groups in sorted order, and
// a nil one as null.
func (w *jsonWriter) assignment(a map[string]ConfigValue) {
	if a == nil {
		w.raw(`null`)
		return
	}
	groups := make([]string, 0, len(a))
	for g := range a {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	w.raw(`{`)
	for i, g := range groups {
		if i > 0 {
			w.raw(`,`)
		}
		w.str(g)
		w.raw(`:{"cpu":`)
		w.float(a[g].CPU)
		w.raw(`,"mem_mb":`)
		w.float(a[g].MemMB)
		w.raw(`}`)
	}
	w.raw(`}`)
}

// marshalEntryMeta encodes m as json.Marshal(m) does. The canonical spec
// is compact and escaped already, so it is copied as it is.
func marshalEntryMeta(m *entryMeta) ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, 256+len(m.Spec))}
	w.raw(`{"spec":`)
	if m.Spec == nil {
		w.raw(`null`)
	} else {
		w.b = append(w.b, m.Spec...)
	}
	w.raw(`,"host_cores":`)
	w.float(m.HostCores)
	w.raw(`,"noise":`)
	w.bool(m.Noise)
	w.raw(`,"seed":`)
	w.uint(m.Seed)
	w.raw(`,"input_scale":`)
	w.float(m.InputScale)
	if m.Method != "" {
		w.raw(`,"method":`)
		w.str(m.Method)
	}
	if m.MethodVersion != 0 {
		w.raw(`,"method_version":`)
		w.int(int64(m.MethodVersion))
	}
	if m.SLOMS != 0 {
		w.raw(`,"slo_ms":`)
		w.float(m.SLOMS)
	}
	if m.MaxSamples != 0 {
		w.raw(`,"max_samples":`)
		w.int(int64(m.MaxSamples))
	}
	if m.MaxSimCostMS != 0 {
		w.raw(`,"max_sim_cost_ms":`)
		w.float(m.MaxSimCostMS)
	}
	if m.CreatedUnixMS != 0 {
		w.raw(`,"created_unix_ms":`)
		w.int(m.CreatedUnixMS)
	}
	w.raw(`}`)
	return w.result()
}
