package main

import (
	"math"
	"os"
	"testing"
)

func TestAttributeInnermostLayer(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seconds, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"trace":         0.30, // math.Log1p inlined into trace.(*Generator).Next
		"encoding_json": 0.20, // runtime.mallocgc under encoding/json
		"other":         0.25, // a GC worker has no named frame
		"prince":        0.15, // innermost of prince, cat, tracker, core, memctrl
		"sim":           0.10, // invariant is no layer: its caller is charged
		"crypto_sha256": 0.50, // the FIPS block function belongs to crypto/sha256
	}
	for layer, w := range want {
		if got := seconds[layer]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: %.3fs, want %.3fs", layer, got, w)
		}
	}
	for layer, got := range seconds {
		if _, ok := want[layer]; !ok {
			t.Errorf("unexpected layer %s: %.3fs", layer, got)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cat.(*Table[go.shape.int64]).LookupPos":                         "cat",
		"repro/internal/cat.New[go.shape.struct { repro/internal/rit.partner uint64 }]": "cat",
		"repro/internal/service.(*Manager).submit.func1":                                "service",
		"repro/internal/config.Config.Validate":                                         "",
		"net/http.(*conn).serve":                                                        "net_http",
		"net/http/httptest.(*Server).wrap.func1":                                        "net_http",
		"net.(*conn).Read":                                                              "",
		"syscall.Syscall6":                                                              "syscall",
		"internal/syscall/unix.Fcntl":                                                   "",
		"runtime.mallocgc":                                                              "",
		"main.(*counting).Remap":                                                        "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofDuration(t *testing.T) {
	for s, want := range map[string]float64{"10ms": 0.01, "1.20s": 1.2, "2.50mins": 150, "750us": 0.00075} {
		d, err := parsePprofDuration(s)
		if err != nil || math.Abs(d.Seconds()-want) > 1e-9 {
			t.Errorf("parsePprofDuration(%q) = %v, %v; want %gs", s, d, err, want)
		}
	}
	if _, err := parsePprofDuration("12 apples"); err == nil {
		t.Error("parsePprofDuration accepted an unknown unit")
	}
}
