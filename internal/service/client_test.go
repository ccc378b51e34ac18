package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		name string
		in   string
		min  time.Duration
		max  time.Duration
	}{
		{"empty", "", 0, 0},
		{"delta seconds", "3", 3 * time.Second, 3 * time.Second},
		{"zero", "0", 0, 0},
		{"negative", "-5", 0, 0},
		{"garbage", "soon", 0, 0},
		// Deltas past the longest Duration saturate instead of wrapping
		// to a negative (ignored) or a short wait.
		{"overflow to negative", "9223372037", math.MaxInt64, math.MaxInt64},
		{"overflow to short", "18446744074", math.MaxInt64, math.MaxInt64},
		{"past int64", "99999999999999999999999", math.MaxInt64, math.MaxInt64},
		// The RFC 9110 HTTP-date form, which proxies and standard servers
		// emit; it was silently dropped before the fix.
		{"http date ahead", time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat),
			time.Second, 3 * time.Second},
		{"http date past", time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parseRetryAfter(tc.in)
			if got < tc.min || got > tc.max {
				t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]",
					tc.in, got, tc.min, tc.max)
			}
		})
	}
}

// FuzzParseRetryAfter checks that no header value yields a negative
// wait, and that among all-digit values a larger delta never waits less.
func FuzzParseRetryAfter(f *testing.F) {
	for _, s := range []string{"", "0", "3", "-5", "+7", "soon", "007",
		"9223372036", "9223372037", "18446744074", "99999999999999999999999",
		"Tue, 03 Jun 2025 17:00:00 GMT"} {
		f.Add(s, "1")
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		da, db := parseRetryAfter(a), parseRetryAfter(b)
		if da < 0 || db < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, parseRetryAfter(%q) = %v; want >= 0", a, da, b, db)
		}
		if !allDigits(a) || !allDigits(b) {
			return
		}
		if cmpDecimal(a, b) > 0 {
			a, b, da, db = b, a, db, da
		}
		if da > db {
			t.Fatalf("parseRetryAfter(%q) = %v > parseRetryAfter(%q) = %v", a, da, b, db)
		}
	})
}

func allDigits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return s != ""
}

// cmpDecimal compares two all-digit strings by numeric value.
func cmpDecimal(a, b string) int {
	a, b = strings.TrimLeft(a, "0"), strings.TrimLeft(b, "0")
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return strings.Compare(a, b)
}

func TestClientHonorsHTTPDateRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After",
				time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer srv.Close()

	var slept time.Duration
	c := NewClient(srv.URL)
	c.Retry = resilience.Policy{
		MaxAttempts: 2,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept += d
			return nil
		},
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The backoff for the first retry caps at 100 ms; only the parsed
	// HTTP-date hint can push the wait near the server's 2 s.
	if slept < 500*time.Millisecond {
		t.Errorf("retry waited %v; the HTTP-date Retry-After hint was dropped", slept)
	}
}

// TestRunRecoversLostJobFromResultStore is the regression for the blind
// re-POST: when a job record vanishes (fleet owner died, journal missed
// it), Run must first ask the content-addressed result store before
// resubmitting — finished work is never re-queued.
func TestRunRecoversLostJobFromResultStore(t *testing.T) {
	spec := uniqueSpec(7).Normalize()
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(JobView{ID: "job-000001", State: StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		// The record is gone — a restart lost the id.
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"service: no such job"}`)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("hash") != spec.Hash() {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"no result"}`)
			return
		}
		env := ResultEnvelope{Hash: spec.Hash(), CacheHit: true}
		env.Result.IPC = 42
		json.NewEncoder(w).Encode(env)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := NewClient(srv.URL)
	c.PollInterval = time.Millisecond
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC != 42 {
		t.Fatalf("result = %+v, want the stored IPC 42", res)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("client re-POSTed %d times for work already done; hash lookup must win", got)
	}
}
