package service

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzMissBodiesDifferential holds the miss path's hand-written encoders
// to the json.Marshal output they replaced: the recommendation body and
// the entryMeta sidecar must be byte-identical, and both encoders must
// fail exactly when json.Marshal does (a non-finite float).
//
// shape picks the assignment (bit 0-1: nil, empty, one group, two
// groups), a nil spec (bit 2), Noise (bit 3) and whether the omitempty
// floats are zeroed (bit 4).
func FuzzMissBodiesDifferential(f *testing.F) {
	f.Add("chatbot", "g<>&", "sha256:ab", 1500.0, 0.25, uint64(42), 60, byte(2), 1, int64(1700000000000))
	f.Add("wf x", "grp ", "fp", 1e-7, 1e21, uint64(1)<<63, 0, byte(3), 0, int64(0))
	f.Add("bad\xffutf8", "\xc3(", "", 0.0, 0.0, uint64(math.MaxUint64), 0, byte(0x10), 0, int64(0))
	f.Add("nil-assignment", "g", "fp", 2.5, 1e-7, uint64(7), 3, byte(0), 2, int64(-1))
	f.Add("empty-assignment", "g", "fp", 1e21, 123.456, uint64(0), -5, byte(1|4|8), 1, int64(5))
	f.Add("neg-zero", "g", "fp", math.Copysign(0, -1), -1e-300, uint64(9), 1, byte(2|16), 0, int64(0))
	f.Fuzz(func(t *testing.T, workflow, group, fp string, f1, f2 float64, seed uint64, samples int, shape byte, version int, created int64) {
		rec := &Recommendation{
			Fingerprint:     fp,
			Workflow:        workflow,
			Method:          group,
			SLOMS:           f1,
			Samples:         samples,
			SearchRuntimeMS: f2,
			SearchCost:      f1 * 3,
			Final:           FinalResult{E2EMS: f2, Cost: f1, OOM: shape&8 != 0},
			SLOCompliant:    shape&16 != 0,
		}
		switch shape & 3 {
		case 1:
			rec.Assignment = map[string]ConfigValue{}
		case 2:
			rec.Assignment = map[string]ConfigValue{group: {CPU: f1, MemMB: f2}}
		case 3:
			rec.Assignment = map[string]ConfigValue{group: {CPU: f1, MemMB: f2}, workflow: {CPU: f2, MemMB: 128}}
		}
		want, werr := json.Marshal(rec)
		got, gerr := marshalRecommendation(rec)
		if (werr != nil) != (gerr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("recommendation:\n got %s, %v\nwant %s, %v", got, gerr, want, werr)
		}

		// The spec is canonical JSON: compact, with json.Marshal's escaping.
		spec, err := json.Marshal(map[string]string{"name": workflow, "group": group})
		if err != nil {
			t.Fatal(err)
		}
		m := entryMeta{
			Spec:          spec,
			HostCores:     f1,
			Noise:         shape&8 != 0,
			Seed:          seed,
			InputScale:    f2,
			Method:        group,
			MethodVersion: version,
			SLOMS:         f1,
			MaxSamples:    samples,
			MaxSimCostMS:  f2,
			CreatedUnixMS: created,
		}
		if shape&4 != 0 {
			m.Spec = nil
		}
		if shape&16 != 0 {
			m.SLOMS, m.MaxSimCostMS = 0, 0
		}
		want, werr = json.Marshal(m)
		got, gerr = marshalEntryMeta(&m)
		if (werr != nil) != (gerr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("entryMeta:\n got %s, %v\nwant %s, %v", got, gerr, want, werr)
		}
	})
}
