package workflow

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// TestValidateRejectsNonFinite: NaN compares false against every bound,
// so each float a spec carries is checked for finiteness by name, and
// CanonicalJSON reports the error instead of writing NaN bytes.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			field string
			set   func(*Spec)
		}{
			{"SLOMS", func(s *Spec) { s.SLOMS = bad }},
			{"CPUWorkMS", func(s *Spec) { setProfile(s, "a", func(p *perfmodel.Profile) { p.CPUWorkMS = bad }) }},
			{"ParallelFrac", func(s *Spec) { setProfile(s, "b", func(p *perfmodel.Profile) { p.ParallelFrac = bad }) }},
			{"NoiseStd", func(s *Spec) { setProfile(s, "d", func(p *perfmodel.Profile) { p.NoiseStd = bad }) }},
			{"MaxCPU", func(s *Spec) { s.Limits.MaxCPU = bad }},
			{"MemStepMB", func(s *Spec) { s.Limits.MemStepMB = bad }},
			{"not finite", func(s *Spec) { s.Base["mid"] = resources.Config{CPU: bad, MemMB: 4096} }},
		} {
			spec := fingerprintSpec(t, false)
			tc.set(spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: Validate err = %v, want one naming %s", tc.field, bad, err, tc.field)
			}
			b, err := CanonicalJSON(spec)
			if err == nil || bytes.Contains(b, []byte("NaN")) {
				t.Errorf("%s = %v: CanonicalJSON = %q, %v; want an error", tc.field, bad, b, err)
			}
		}
	}
}

// An extra base entry (a group no node uses) is not validated, so a
// non-finite value there reaches the encoder, which must refuse it.
func TestCanonicalJSONRefusesNonFiniteExtraBase(t *testing.T) {
	spec := fingerprintSpec(t, false)
	spec.Base["unused"] = resources.Config{CPU: math.NaN(), MemMB: 1}
	if b, err := CanonicalJSON(spec); err == nil {
		t.Fatalf("CanonicalJSON = %s, want an error", b)
	}
}

func setProfile(s *Spec, id string, f func(*perfmodel.Profile)) {
	p := s.Profiles[id]
	f(&p)
	s.Profiles[id] = p
}

// TestValidateMatchesReference: on specs broken in several places at
// once, Validate reports the same violation as the sorted reference.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	breaks := []func(*Spec){
		func(s *Spec) { delete(s.Profiles, "c") },
		func(s *Spec) { delete(s.Base, "mid") },
		func(s *Spec) { delete(s.Base, "a") },
		func(s *Spec) { s.Base["d"] = resources.Config{CPU: 99, MemMB: 4096} },
		func(s *Spec) { s.Base["mid"] = resources.Config{CPU: 0, MemMB: 4096} },
		func(s *Spec) { s.Groups["c"] = "" },
		func(s *Spec) { s.Groups["a"] = "" },
		func(s *Spec) { s.Groups["zz"] = "mid" },
		func(s *Spec) { s.Groups["b"] = "solo" },
		func(s *Spec) { s.Groups["d"] = "mid" },
		func(s *Spec) { s.Base["extra"] = resources.Config{CPU: -1} },
	}
	for trial := 0; trial < 500; trial++ {
		spec := fingerprintSpec(t, trial%2 == 1)
		for _, i := range rng.Perm(len(breaks))[:rng.IntN(4)] {
			breaks[i](spec)
		}
		got, want := spec.Validate(), validateReference(spec)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("Validate = %v, reference = %v", got, want)
		}
	}
}
