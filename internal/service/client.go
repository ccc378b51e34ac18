package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/resilience"
	"repro/internal/sim"
)

// Client talks to a running rrs-serve. It is safe for concurrent use —
// cmd/rrs-experiments fans a whole figure sweep through one Client.
//
// The client is built for an unreliable network and a restartable
// server: transient failures (connection errors, 5xx, 429) are retried
// with full-jitter exponential backoff, Retry-After hints are honored,
// result polls are jittered so sweep fan-outs do not synchronize, and a
// retried POST after a dropped response is idempotent — the server
// coalesces submissions by spec content hash, so the retry lands on the
// same job instead of double-running the simulation.
type Client struct {
	base string
	hc   *http.Client
	// PollInterval is the base result-polling cadence (default 250 ms);
	// actual polls are jittered around it and back off toward
	// maxPollBackoff× under sustained pending responses.
	PollInterval time.Duration
	// Retry shapes the transient-failure retry loop for every request.
	Retry resilience.Policy
}

// maxPollBackoff caps how far the pending-result poll interval grows, as
// a multiple of PollInterval.
const maxPollBackoff = 8

// maxResubmits bounds how many times Run re-submits a spec whose job
// vanished server-side (a restart that lost the record, or a concurrent
// DELETE) before giving up.
const maxResubmits = 5

// ClientOption customizes NewClient.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport — how tests drive the client
// through a fault-injecting chaos RoundTripper.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetryPolicy overrides the default retry policy.
func WithRetryPolicy(p resilience.Policy) ClientOption {
	return func(c *Client) { c.Retry = p }
}

// NewClient targets a server base URL such as "http://localhost:8080".
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is a non-2xx server response. It classifies itself for the
// retry loop: 429 and 5xx (minus 501) are transient, everything else is
// permanent.
type APIError struct {
	Status  int
	Message string
	// After is the server's Retry-After hint, when present.
	After time.Duration
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service client: server returned %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("service client: server returned %d", e.Status)
}

// Transient reports whether a retry may outlive the failure.
func (e *APIError) Transient() bool { return resilience.TransientStatus(e.Status) }

// RetryAfter surfaces the server's wait hint to the retry loop.
func (e *APIError) RetryAfter() time.Duration { return e.After }

// Health checks GET /healthz (with transient-failure retries, so it
// doubles as a wait-for-server-up probe).
func (c *Client) Health(ctx context.Context) error {
	err := resilience.Do(ctx, c.Retry, func(ctx context.Context) error {
		_, _, _, err := c.roundTrip(ctx, http.MethodGet, "/healthz", nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("service client: %s health: %w", c.base, err)
	}
	return nil
}

// Ready checks GET /readyz with a single probe — no retries, because a
// readiness probe wants the instantaneous verdict: a draining node
// answers 503 and the prober must see that, not a smoothed-over
// success. Returns nil only for a 200.
func (c *Client) Ready(ctx context.Context) error {
	_, _, _, err := c.roundTrip(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return fmt.Errorf("service client: %s ready: %w", c.base, err)
	}
	return nil
}

// Submit POSTs spec and returns the accepted job's view. Retried
// transparently on transient failures: the spec content hash makes the
// resubmission idempotent server-side.
func (c *Client) Submit(ctx context.Context, spec Spec) (JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	err = resilience.Do(ctx, c.Retry, func(ctx context.Context) error {
		_, raw, _, err := c.roundTrip(ctx, http.MethodPost, apiPrefix, body)
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, &v)
	})
	if err != nil {
		return JobView{}, err
	}
	return v, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := resilience.Do(ctx, c.Retry, func(ctx context.Context) error {
		_, raw, _, err := c.roundTrip(ctx, http.MethodGet, apiPrefix+"/"+id, nil)
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, &v)
	})
	if err != nil {
		return JobView{}, err
	}
	return v, nil
}

// Cancel DELETEs a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return resilience.Do(ctx, c.Retry, func(ctx context.Context) error {
		_, _, _, err := c.roundTrip(ctx, http.MethodDelete, apiPrefix+"/"+id, nil)
		return err
	})
}

// Result polls GET /v1/jobs/{id}/result until the job finishes, ctx is
// cancelled, or the server reports a terminal failure. Transient
// transport failures during a poll are retried; pending responses back
// off with jitter (honoring Retry-After) so a fleet of pollers spreads
// out instead of beating in phase.
func (c *Client) Result(ctx context.Context, id string) (sim.Result, error) {
	base := c.PollInterval
	useHint := base <= 0 // an explicit PollInterval overrides server hints
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	wait := base
	for {
		var env ResultEnvelope
		var hint time.Duration
		pending := false
		err := resilience.Do(ctx, c.Retry, func(ctx context.Context) error {
			status, raw, after, err := c.roundTrip(ctx, http.MethodGet,
				apiPrefix+"/"+id+"/result", nil)
			if err != nil {
				return err
			}
			if status == http.StatusAccepted {
				pending, hint = true, after
				return nil
			}
			pending = false
			if uerr := json.Unmarshal(raw, &env); uerr != nil {
				return fmt.Errorf("service client: decoding result: %w", uerr)
			}
			return nil
		})
		if err != nil {
			return sim.Result{}, err
		}
		if !pending {
			return env.Result, nil
		}
		// Jittered backoff between pending polls: uniform in
		// [wait/2, wait), at least the server's hint, growing toward the
		// cap while the job stays pending.
		d := wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
		if useHint && hint > d {
			d = hint
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return sim.Result{}, ctx.Err()
		case <-t.C:
		}
		if wait < maxPollBackoff*base {
			wait = wait * 3 / 2
		}
	}
}

// ResultByHash fetches a held result by spec content hash
// (GET /v1/results/{hash}). ok=false when no node holds it; the error
// is non-nil only for failures other than a plain 404.
func (c *Client) ResultByHash(ctx context.Context, hash string) (res sim.Result, ok bool, err error) {
	var env ResultEnvelope
	err = resilience.Do(ctx, c.Retry, func(ctx context.Context) error {
		_, raw, _, err := c.roundTrip(ctx, http.MethodGet, "/v1/results/"+hash, nil)
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, &env)
	})
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		return sim.Result{}, false, nil
	}
	if err != nil {
		return sim.Result{}, false, err
	}
	return env.Result, true, nil
}

// Run submits spec and waits for its result — the drop-in remote
// equivalent of sim.Run for named-mitigation jobs. If the job record
// vanishes mid-poll (a server restart whose journal did not cover it, or
// a concurrent DELETE), Run first checks the result store by content
// hash — on a fleet the computation may have finished and be held by a
// surviving replica even though the owner's job record died with it —
// and only re-submits when no node holds the result.
func (c *Client) Run(ctx context.Context, spec Spec) (sim.Result, error) {
	var lastErr error
	hash := spec.Hash()
	for attempt := 0; attempt <= maxResubmits; attempt++ {
		if attempt > 0 {
			// Recovering from a lost job record: the work may already be
			// done fleet-wide. A hash lookup is read-only and cannot
			// re-queue finished work the way a blind re-POST can.
			if res, ok, err := c.ResultByHash(ctx, hash); err == nil && ok {
				return res, nil
			} else if ctx.Err() != nil {
				return sim.Result{}, ctx.Err()
			}
		}
		v, err := c.Submit(ctx, spec)
		if err != nil {
			return sim.Result{}, err
		}
		res, err := c.Result(ctx, v.ID)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			lastErr = err
			continue // the job is gone; check the result store, then resubmit
		}
		return res, err
	}
	return sim.Result{}, fmt.Errorf("service client: job lost %d times: %w",
		maxResubmits+1, lastErr)
}

// parseRetryAfter interprets a Retry-After header value. RFC 9110
// allows two forms — delta-seconds ("3") and an HTTP-date ("Tue, 03 Jun
// 2025 17:00:00 GMT") — and proxies rewrite one into the other, so the
// client must honor both; a date in the past (or skewed clocks) yields
// zero rather than a negative wait. A delta too large for a Duration
// saturates at the longest one instead of wrapping.
func parseRetryAfter(s string) time.Duration {
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs <= 0:
			return 0
		case int64(secs) > int64(math.MaxInt64/time.Second):
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(s); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// roundTrip performs one HTTP exchange, returning the status, body and
// Retry-After hint on 2xx and a classified error otherwise.
// Connection-level failures come back as-is (net errors classify as
// transient); non-2xx statuses become *APIError carrying the hint.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, resilience.MarkTransient(
			fmt.Errorf("service client: reading response: %w", err))
	}
	after := parseRetryAfter(resp.Header.Get("Retry-After"))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp.StatusCode, raw, after, nil
	}
	apiErr := &APIError{Status: resp.StatusCode, After: after}
	var e errorBody
	if json.Unmarshal(raw, &e) == nil {
		apiErr.Message = e.Error
	}
	return resp.StatusCode, raw, after, apiErr
}
