package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeSpec mirrors handleSubmit's decode path (strict fields), so the
// fuzzer exercises exactly what a hostile POST body reaches.
func decodeSpec(raw []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzSpecDecode asserts the submission path is total: any byte string
// either fails to decode with an error or yields a Spec whose
// Normalize, Hash and Validate all return without panicking, and whose
// hash is a fixed point (normalizing again cannot change the identity
// the cache and journal key on).
func FuzzSpecDecode(f *testing.F) {
	seeds := []string{
		`{"workloads":["bzip2"]}`,
		`{"workloads":["bzip2","mcf"],"mitigation":"rrs","scale":16,"epochs":2,"seed":7}`,
		`{"workloads":[],"mitigation":"blockhammer","blacklist":12}`,
		`{"workloads":["bzip2"],"scale":-3,"epochs":-1,"instructions_per_core":-9}`,
		`{"workloads":["bzip2"],"row_hammer_threshold":1,"hot_row_threshold":-2,"hot_share":1e308}`,
		`{"workloads":`,
		`{"workloads":["bzip2"],"unknown_field":1}`,
		`null`, `0`, `""`, `[]`, `{}`,
		"{\"workloads\":[\"\\u0000\"]}",
		`{"seed":18446744073709551615}`,
		`{"seed":-1}`,
		`{"timeout_seconds":"NaN"}`,
		strings.Repeat(`{"workloads":`, 64),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := decodeSpec(raw)
		if err != nil {
			return // rejection is an acceptable outcome; panicking is not
		}
		n := spec.Normalize()
		h1 := spec.Hash()
		if h2 := n.Hash(); h1 != h2 {
			t.Fatalf("hash not a fixed point of Normalize: %s vs %s", h1, h2)
		}
		if len(h1) != 64 {
			t.Fatalf("hash %q is not hex SHA-256", h1)
		}
		_ = spec.Validate() // must classify, not crash
	})
}

func TestSpecDecodeHostileInputsNeverPanic(t *testing.T) {
	cases := []string{
		``, `{`, `}`, `[]`, `null`, `true`, `42`,
		`{"workloads": "bzip2"}`,                               // wrong type
		`{"workloads": [1, 2]}`,                                // wrong element type
		`{"scale": 1e999}`,                                     // float overflow
		`{"seed": 1.5}`,                                        // fractional uint
		`{"mitigation": {"nested": "object"}}`,                 // wrong type
		`{"workloads":["bzip2"]} trailing`,                     // trailing garbage is fine for Decode
		strings.Repeat(`[`, 10_000),                            // deep nesting
		`{"workloads":["` + strings.Repeat("a", 1<<16) + `"]}`, // long name
	}
	for _, raw := range cases {
		spec, err := decodeSpec([]byte(raw))
		if err != nil {
			continue
		}
		// Decoded specs must survive the full pipeline.
		_ = spec.Normalize()
		_ = spec.Hash()
		_ = spec.Validate()
	}
}

func TestSpecHashIgnoresFieldOrderAndSpelledDefaults(t *testing.T) {
	// The same job written three ways: minimal, defaults spelled out, and
	// a different key order. The cache and the submit-coalescing map key
	// on the hash, so these must collide.
	bodies := []string{
		`{"workloads":["bzip2"],"seed":3,"scale":16,"epochs":1}`,
		`{"epochs":1,"seed":3,"workloads":["bzip2"],"scale":16}`,
		`{"workloads":["bzip2"],"mitigation":"none","scale":16,"epochs":1,"seed":3,
		  "instructions_per_core":4611686018427387904}`,
		// TimeoutSeconds is result-neutral and must not split the cache.
		`{"workloads":["bzip2"],"seed":3,"scale":16,"epochs":1,"timeout_seconds":9.5}`,
	}
	var want string
	for i, raw := range bodies {
		spec, err := decodeSpec([]byte(raw))
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		h := spec.Hash()
		if i == 0 {
			want = h
			continue
		}
		if h != want {
			t.Errorf("body %d hashed %s, body 0 hashed %s; same job must share a hash", i, h, want)
		}
	}

	// And a genuinely different job must not collide.
	other, err := decodeSpec([]byte(`{"workloads":["bzip2"],"seed":4,"scale":16,"epochs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash() == want {
		t.Error("distinct seeds collided")
	}
}

// FuzzSweepSpecDecode drives POST /v1/sweeps' decode path: any byte
// string either fails ReadSweepSpec's strict decode or yields a
// SweepSpec whose Validate, Hash and Expand return without panicking,
// and Expand either refuses the sweep or stays within maxSweepChildren.
func FuzzSweepSpecDecode(f *testing.F) {
	// The six-axis product that once wrapped int past the child bound.
	axis := func(v string) string {
		return "[" + strings.TrimSuffix(strings.Repeat(v+",", 2048), ",") + "]"
	}
	overflow := `{"base":{"workloads":["bzip2"]},"axes":{` +
		`"mitigations":` + axis(`"none"`) + `,"blacklists":` + axis("1") +
		`,"row_hammer_thresholds":` + axis("1") + `,"scales":` + axis("1") +
		`,"seeds":` + axis("1") + `,"workloads":` + axis(`"bzip2"`) + `}}`
	seeds := []string{
		overflow,
		`{"base":{"workloads":["bzip2"],"workers":2},"axes":{"seeds":[1,2]}}`,
		`{"base":{"workloads":["bzip2"],"scale":16,"epochs":1,"seed":1},` +
			`"axes":{"mitigations":["none","rrs","blockhammer"],"blacklists":[512,1024]}}`,
		`{"base":{"workloads":["bzip2","mcf"]},"axes":{"workloads":["hmmer","doom"]}}`,
		`{"base":{"workloads":["bzip2"]},"axes":{"scales":[0,-1,16],"seeds":[18446744073709551615]}}`,
		`{"base":{},"axes":{}}`,
		`{"base":{"workloads":["bzip2"]},"axes":{"seeds":[1]},"extra":1}`,
		`{"base":`, `null`, `[]`, `{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(raw))
		ss, ok := ReadSweepSpec(httptest.NewRecorder(), req)
		if !ok {
			return // rejection is an acceptable outcome; panicking is not
		}
		_ = ss.Validate()
		if h := ss.Hash(); len(h) != 64 {
			t.Fatalf("hash %q is not hex SHA-256", h)
		}
		specs, err := ss.Expand()
		if err == nil && len(specs) > maxSweepChildren {
			t.Fatalf("Expand returned %d children, bound is %d", len(specs), maxSweepChildren)
		}
	})
}
