// Package resilience is the shared failure policy of the serving layer:
// it decides which errors are worth retrying, how long to wait between
// attempts, and when a deadline makes another attempt pointless. Its
// callers are the loops that cross a wire: the service client (HTTP
// retries, result polling), the sweep feeder's admission wait, and the
// fleet's gossip, replication and routing. A job's simulation is never
// retried: the simulator is deterministic, so a failed run fails its job.
//
// The model is deliberately simple:
//
//   - An error is transient (a retry may succeed: connection resets,
//     overload) or permanent (a retry reproduces it: validation
//     failures, deterministic simulation errors). Unknown errors default
//     to permanent — retrying a deterministic failure only multiplies
//     load — except for network-shaped errors, which are transient by
//     nature.
//   - Delays grow exponentially and are drawn with full jitter
//     (uniform in [0, cap]), the AWS-style scheme that de-correlates
//     synchronized retry storms.
//   - A server can attach an explicit hint (Retry-After) to an error;
//     the hint overrides the computed backoff for that attempt.
package resilience

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"time"
)

// Policy shapes a retry loop. The zero value is usable: Defaults fills
// in 4 attempts, 100 ms base, 5 s cap, multiplier 2.
type Policy struct {
	// MaxAttempts bounds the total number of tries (first call
	// included). 0 means the default (4); negative means retry until the
	// context expires.
	MaxAttempts int
	// BaseDelay is the backoff cap for the first retry (default 100 ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 5 s).
	MaxDelay time.Duration
	// Multiplier grows the cap per attempt (default 2).
	Multiplier float64

	// Rand supplies jitter; nil uses the global source. Tests inject a
	// seeded source for deterministic schedules.
	Rand *rand.Rand
	// Sleep replaces time-based waiting (tests). nil sleeps on a timer,
	// honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Defaults returns p with zero fields replaced by the stock policy.
func (p Policy) Defaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	return p
}

// Delay draws the wait before retry number attempt (0-based: the delay
// after the first failure is Delay(0)). Full jitter: uniform in
// [0, min(MaxDelay, BaseDelay·Multiplier^attempt)], never zero.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.Defaults()
	cap := float64(p.BaseDelay)
	for i := 0; i < attempt && cap < float64(p.MaxDelay); i++ {
		cap *= p.Multiplier
	}
	if cap > float64(p.MaxDelay) {
		cap = float64(p.MaxDelay)
	}
	var f float64
	if p.Rand != nil {
		f = p.Rand.Float64()
	} else {
		f = rand.Float64()
	}
	d := time.Duration(f * cap)
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// sleep waits d, returning early with ctx.Err() on cancellation.
func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// classified wraps an error with an explicit transience verdict.
type classified struct {
	err       error
	transient bool
}

func (c *classified) Error() string   { return c.err.Error() }
func (c *classified) Unwrap() error   { return c.err }
func (c *classified) Transient() bool { return c.transient }

// MarkTransient tags err as retryable, making the caller's verdict
// explicit instead of relying on inference.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: true}
}

// MarkPermanent tags err as not worth retrying, overriding inference
// (e.g. a net.Error that is known to be a misconfiguration).
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: false}
}

// IsTransient reports whether a retry of the failed operation could
// succeed. Explicit marks win; context expiry is never transient (the
// caller's deadline governs); network-shaped errors are transient;
// everything else is permanent.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var c interface{ Transient() bool }
	if errors.As(err, &c) {
		return c.Transient()
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return true
	}
	// A connection torn down mid-response surfaces as an unexpected EOF.
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	return false
}

// TransientStatus reports whether an HTTP status code signals a
// condition a retry may outlive: overload (429), and server-side
// failures (5xx) other than 501 Not Implemented.
func TransientStatus(code int) bool {
	if code == 429 {
		return true
	}
	return code >= 500 && code != 501
}

// RetryAfter extracts a server wait hint, if any: the RetryAfter method
// of an error in err's chain (service.APIError carries the server's
// Retry-After header this way).
func RetryAfter(err error) (time.Duration, bool) {
	var h interface{ RetryAfter() time.Duration }
	if errors.As(err, &h) {
		if d := h.RetryAfter(); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// Do runs fn until it succeeds, fails permanently, exhausts
// p.MaxAttempts, or ctx expires. Between attempts it sleeps a
// full-jitter backoff — or the error's Retry-After hint, when larger —
// and it gives up early when the context's deadline cannot outlive the
// wait. The returned error is the last attempt's, wrapped with the
// context's error when the loop was cut short.
func Do(ctx context.Context, p Policy, fn func(ctx context.Context) error) error {
	p = p.Defaults()
	var err error
	for attempt := 0; ; attempt++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		err = fn(ctx)
		if err == nil || !IsTransient(err) {
			return err
		}
		if p.MaxAttempts > 0 && attempt+1 >= p.MaxAttempts {
			return err
		}
		d := p.Delay(attempt)
		if hint, ok := RetryAfter(err); ok && hint > d {
			d = hint
		}
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
			// Sleeping past the deadline cannot help; report the real
			// failure rather than a bare context error.
			return err
		}
		if serr := p.sleep(ctx, d); serr != nil {
			return errors.Join(serr, err)
		}
	}
}
