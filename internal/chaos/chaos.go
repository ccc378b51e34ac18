// Package chaos is deterministic fault injection for the network
// between a client and the serving layer. Transport is an
// http.RoundTripper that drops connections, injects synthetic 5xx
// responses, and adds jittered latency at configured rates, driven by
// one seeded PRNG so a failing schedule replays exactly under
// `go test -race -run Chaos`.
//
// The worker side needs no injector: the simulator is deterministic, so
// a run fails the same way every time and its job fails once. The soak
// tests model that with a poison spec whose executor panics, plus a
// kill -9 and journal-replay restart.
//
// Nothing here is imported by production code; the packages under test
// take an http.RoundTripper and Transport slots in from tests.
package chaos

import (
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Faults configures a Transport. Rates are probabilities in [0, 1],
// evaluated per request in the order drop → fail → delay.
type Faults struct {
	// Seed drives every probabilistic decision; equal seeds give equal
	// fault schedules.
	Seed uint64
	// DropRate is the chance a request never reaches the server: the
	// round trip returns a connection-refused-shaped error.
	DropRate float64
	// FailRate is the chance the server's answer is replaced by a
	// synthetic 503 (the request is NOT forwarded — like a proxy
	// shedding load before the backend).
	FailRate float64
	// DelayRate is the chance a request is delayed by a uniform draw in
	// (0, MaxDelay] before being forwarded.
	DelayRate float64
	// MaxDelay bounds injected latency (default 10 ms when DelayRate > 0).
	MaxDelay time.Duration
}

// Transport injects Faults in front of an inner http.RoundTripper. It is
// safe for concurrent use; the seeded PRNG is mutex-serialized so the
// fault sequence is a deterministic function of request order.
type Transport struct {
	// Inner performs real round trips (default http.DefaultTransport).
	// Tests that restart a backend swap the target by making Inner a
	// rewriting transport.
	Inner http.RoundTripper

	faults Faults

	mu       sync.Mutex
	rng      *rand.Rand
	requests int64
	dropped  int64
	failed   int64
	delayed  int64
}

// NewTransport builds a fault-injecting transport.
func NewTransport(f Faults, inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if f.MaxDelay <= 0 {
		f.MaxDelay = 10 * time.Millisecond
	}
	return &Transport{
		Inner:  inner,
		faults: f,
		rng:    rand.New(rand.NewSource(int64(f.Seed))),
	}
}

// droppedError is the connection-level failure Transport fabricates. It
// classifies as transient so retry loops treat it like a real outage.
type droppedError struct{ op string }

func (e *droppedError) Error() string   { return "chaos: connection dropped during " + e.op }
func (e *droppedError) Transient() bool { return true }

// RoundTrip applies the fault schedule, then defers to Inner.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.requests++
	drop := t.rng.Float64() < t.faults.DropRate
	fail := !drop && t.rng.Float64() < t.faults.FailRate
	var delay time.Duration
	if !drop && !fail && t.faults.DelayRate > 0 && t.rng.Float64() < t.faults.DelayRate {
		delay = time.Duration(1 + t.rng.Int63n(int64(t.faults.MaxDelay)))
	}
	switch {
	case drop:
		t.dropped++
	case fail:
		t.failed++
	case delay > 0:
		t.delayed++
	}
	t.mu.Unlock()

	if drop {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &droppedError{op: req.Method + " " + req.URL.Path}
	}
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"chaos: injected 503"}`)),
			Request: req,
		}, nil
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	return t.Inner.RoundTrip(req)
}

// Stats reports how many requests were seen and faulted.
func (t *Transport) Stats() (requests, dropped, failed, delayed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests, t.dropped, t.failed, t.delayed
}
