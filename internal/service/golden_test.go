package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"aarc/internal/inputaware"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestGoldenConfigureFingerprint pins the service-level cache key for
// the chatbot workload under aarcd's defaults (method aarc, seed 42, 96
// host cores, noise on, no budget caps). The key's preimage is the spec's
// canonical JSON plus the search identity; a change to either orphans
// every persisted entry, so any rewrite of the key writer must keep it.
func TestGoldenConfigureFingerprint(t *testing.T) {
	const want = "sha256:438b353e20ea818fcaacf6de1599f34e60a3ecc508acfd6e9f1b0d766dd472c7"
	svc, err := New(Config{Method: "aarc", Seed: 42, HostCores: 96, Noise: true, CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	body, _, err := svc.ConfigureJSON(context.Background(), workloads.Chatbot(), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rec Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint != want {
		t.Errorf("chatbot fingerprint %s, want %s", rec.Fingerprint, want)
	}
}

// fingerprintReflect is the cache-key writer fingerprint replaced, kept as
// its oracle: json.Marshal of the key struct, spec bytes re-compacted.
func fingerprintReflect(spec *workflow.Spec, r resolved, classes []inputaware.Class) (string, error) {
	specJSON, err := workflow.CanonicalJSON(spec)
	if err != nil {
		return "", err
	}
	key := struct {
		Spec          json.RawMessage    `json:"spec"`
		Search        json.RawMessage    `json:"search"`
		Method        string             `json:"method"`
		MethodVersion int                `json:"method_version"`
		Seed          uint64             `json:"seed"`
		HostCores     float64            `json:"host_cores"`
		Noise         bool               `json:"noise"`
		InputScale    float64            `json:"input_scale"`
		Classes       []inputaware.Class `json:"classes,omitempty"`
	}{
		Spec:          specJSON,
		Search:        r.sopts.CanonicalJSON(),
		Method:        r.method,
		MethodVersion: r.version,
		Seed:          r.seed,
		HostCores:     r.ropts.HostCores,
		Noise:         r.ropts.Noise,
		InputScale:    r.ropts.InputScale,
		Classes:       classes,
	}
	b, err := json.Marshal(key)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(b)), nil
}

// TestFingerprintMatchesReflectionKey checks the streamed key preimage
// against json.Marshal of the key struct, for configure and dispatch keys
// and for field values that exercise escaping and float formatting.
func TestFingerprintMatchesReflectionKey(t *testing.T) {
	svc := stubService(t, Config{HostCores: 96, Noise: true})
	seed := uint64(1<<64 - 1)
	for _, ro := range []RequestOptions{
		{},
		{Seed: &seed, SLOMS: 1e-7, MaxSamples: 7, MaxSimCostMS: 1e21, InputScale: 0.3},
	} {
		for _, spec := range workloads.All() {
			r, err := svc.resolve(spec, ro)
			if err != nil {
				t.Fatal(err)
			}
			for _, classes := range [][]inputaware.Class{nil, {{Name: "<light>&\u2028", Scale: 5e-324}, {Name: "heavy", Scale: 2}}} {
				for _, method := range []string{r.method, "m\"\\<\xff"} {
					r.method = method
					got, canon, err := svc.fingerprint(spec, r, classes)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fingerprintReflect(spec, r, classes)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s: fingerprint %s, json.Marshal key gives %s", spec.Name, got, want)
					}
					if wantCanon, _ := workflow.CanonicalJSON(spec); !bytes.Equal(canon, wantCanon) {
						t.Errorf("%s: returned canonical bytes differ from CanonicalJSON", spec.Name)
					}
				}
			}
		}
	}
}
