package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
)

// okTransport answers every request 200 without a network.
type okTransport struct{}

func (okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		Status: "200 OK", StatusCode: http.StatusOK,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{},
		Body:    io.NopCloser(strings.NewReader("{}")),
		Request: req,
	}, nil
}

// outcomes drives n GETs through t and encodes each result as a rune.
func outcomes(t *testing.T, rt *Transport, n int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodGet, "http://chaos.test/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rt.RoundTrip(req)
		switch {
		case err != nil:
			sb.WriteByte('d') // dropped
		case resp.StatusCode == http.StatusServiceUnavailable:
			sb.WriteByte('f') // injected failure
			resp.Body.Close()
		default:
			sb.WriteByte('.')
			resp.Body.Close()
		}
	}
	return sb.String()
}

func TestChaosTransportDeterministicSchedule(t *testing.T) {
	f := Faults{Seed: 99, DropRate: 0.2, FailRate: 0.1}
	a := outcomes(t, NewTransport(f, okTransport{}), 500)
	b := outcomes(t, NewTransport(f, okTransport{}), 500)
	if a != b {
		t.Fatal("equal seeds produced different fault schedules")
	}
	f.Seed = 100
	if c := outcomes(t, NewTransport(f, okTransport{}), 500); c == a {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestChaosTransportRates(t *testing.T) {
	rt := NewTransport(Faults{Seed: 7, DropRate: 0.2, FailRate: 0.1}, okTransport{})
	const n = 4000
	s := outcomes(t, rt, n)
	drops := strings.Count(s, "d")
	fails := strings.Count(s, "f")
	if got := float64(drops) / n; got < 0.15 || got > 0.25 {
		t.Errorf("drop rate = %.3f, want ≈ 0.2", got)
	}
	// FailRate applies to requests that survive the drop roll (~80%).
	if got := float64(fails) / n; got < 0.05 || got > 0.12 {
		t.Errorf("fail rate = %.3f, want ≈ 0.08", got)
	}
	requests, dropped, failed, _ := rt.Stats()
	if requests != n || dropped != int64(drops) || failed != int64(fails) {
		t.Errorf("Stats() = (%d,%d,%d), observed (%d,%d,%d)",
			requests, dropped, failed, n, drops, fails)
	}
}

func TestChaosTransportFaultsAreTransient(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	// DropRate 1: every round trip fails with a connection-shaped error
	// that the retry layer must classify as transient.
	hc := &http.Client{Transport: NewTransport(Faults{Seed: 1, DropRate: 1},
		http.DefaultTransport)}
	_, err := hc.Get(backend.URL)
	if err == nil {
		t.Fatal("dropped request returned no error")
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("dropped-connection error %v is not transient", err)
	}
}

func TestChaosTransportDelayHonorsContext(t *testing.T) {
	rt := NewTransport(Faults{Seed: 3, DelayRate: 1, MaxDelay: time.Hour}, okTransport{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://chaos.test/x", nil)
	start := time.Now()
	_, err := rt.RoundTrip(req)
	if err == nil {
		t.Fatal("hour-long injected delay beat a 20ms context")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

func chaosSpec(seed uint64) service.Spec {
	return service.Spec{Workloads: []string{"bzip2"}, Scale: 16, Epochs: 1, Seed: seed}
}

// Ensure the doc'd claim holds: the package is usable from a plain
// http.Client without extra plumbing.
func ExampleNewTransport() {
	hc := &http.Client{Transport: NewTransport(Faults{Seed: 1}, http.DefaultTransport)}
	_ = hc
	fmt.Println("ok")
	// Output: ok
}
