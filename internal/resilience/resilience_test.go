package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"syscall"
	"testing"
	"time"
)

// hintedErr is a transient error carrying a server wait hint, the shape
// of service.APIError for a 429 or 503 with Retry-After.
type hintedErr struct {
	err   error
	after time.Duration
}

func (h *hintedErr) Error() string             { return h.err.Error() }
func (h *hintedErr) Unwrap() error             { return h.err }
func (h *hintedErr) Transient() bool           { return true }
func (h *hintedErr) RetryAfter() time.Duration { return h.after }

// instant is a Sleep that never waits but records requested delays.
func instant(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"marked transient", MarkTransient(errors.New("blip")), true},
		{"marked permanent", MarkPermanent(&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}), false},
		{"wrapped transient", fmt.Errorf("outer: %w", MarkTransient(errors.New("blip"))), true},
		{"net.OpError", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"unexpected EOF", fmt.Errorf("read: %w", io.ErrUnexpectedEOF), true},
		{"context canceled", context.Canceled, false},
		{"deadline exceeded", context.DeadlineExceeded, false},
		{"retry-after hint", &hintedErr{errors.New("429"), time.Second}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsTransient(tc.err); got != tc.want {
				t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestTransientStatus(t *testing.T) {
	for code, want := range map[int]bool{
		200: false, 202: false, 400: false, 404: false, 409: false,
		413: false, 422: false, 429: true, 500: true, 501: false,
		502: true, 503: true,
	} {
		if got := TransientStatus(code); got != want {
			t.Errorf("TransientStatus(%d) = %v, want %v", code, got, want)
		}
	}
}

func TestDelayFullJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
		Multiplier: 2, Rand: rand.New(rand.NewSource(1))}
	caps := []time.Duration{
		100 * time.Millisecond, // attempt 0
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for attempt, cap := range caps {
		for i := 0; i < 200; i++ {
			d := p.Delay(attempt)
			if d <= 0 || d > cap {
				t.Fatalf("Delay(%d) = %v outside (0, %v]", attempt, d, cap)
			}
		}
	}
}

func TestDelayDeterministicWithSeed(t *testing.T) {
	a := Policy{Rand: rand.New(rand.NewSource(42))}
	b := Policy{Rand: rand.New(rand.NewSource(42))}
	for i := 0; i < 16; i++ {
		if da, db := a.Delay(i), b.Delay(i); da != db {
			t.Fatalf("attempt %d: seeded delays diverge: %v vs %v", i, da, db)
		}
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	calls := 0
	perm := errors.New("deterministic failure")
	err := Do(context.Background(), Policy{}, func(context.Context) error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("err=%v calls=%d; want the permanent error after one call", err, calls)
	}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := Policy{MaxAttempts: 10, Sleep: instant(&delays),
		Rand: rand.New(rand.NewSource(7))}
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 4 {
			return MarkTransient(errors.New("blip"))
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d; want success on fourth call", err, calls)
	}
	if len(delays) != 3 {
		t.Fatalf("slept %d times, want 3", len(delays))
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	calls := 0
	blip := MarkTransient(errors.New("blip"))
	p := Policy{MaxAttempts: 3, Sleep: instant(&delays)}
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		return blip
	})
	if !errors.Is(err, blip) || calls != 3 {
		t.Fatalf("err=%v calls=%d; want the transient error after 3 calls", err, calls)
	}
}

func TestDoHonorsRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := Policy{MaxAttempts: 2, Sleep: instant(&delays),
		BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	Do(context.Background(), p, func(context.Context) error {
		calls++
		return &hintedErr{errors.New("overloaded"), 3 * time.Second}
	})
	if len(delays) != 1 || delays[0] < 3*time.Second {
		t.Fatalf("delays = %v; want the 3s Retry-After hint to override backoff", delays)
	}
}

func TestDoStopsWhenDeadlineCannotOutliveWait(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	calls := 0
	blip := MarkTransient(errors.New("blip"))
	p := Policy{MaxAttempts: -1, BaseDelay: time.Hour, MaxDelay: time.Hour}
	err := Do(ctx, p, func(context.Context) error {
		calls++
		return blip
	})
	if !errors.Is(err, blip) {
		t.Fatalf("err = %v, want the underlying transient error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d; an hour-long wait cannot fit a 10ms deadline", calls)
	}
}

func TestDoRespectsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{MaxAttempts: -1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		func(context.Context) error {
			calls++
			if calls == 2 {
				cancel()
			}
			return MarkTransient(errors.New("blip"))
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled joined in", err)
	}
}

func TestDoUnlimitedAttemptsEventuallySucceed(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := Policy{MaxAttempts: -1, Sleep: instant(&delays)}
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 9 {
			return MarkTransient(errors.New("blip"))
		}
		return nil
	})
	if err != nil || calls != 9 {
		t.Fatalf("err=%v calls=%d; want success on the ninth call", err, calls)
	}
}

func TestDoExpiredContextNeverCallsFn(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before Do starts
	calls := 0
	err := Do(ctx, Policy{}, func(context.Context) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times on an expired context, want 0", calls)
	}
}

func TestDoRetryAfterBeyondDeadlineGivesUpImmediately(t *testing.T) {
	// The server asks for a 10s wait but the caller has ~50ms left: Do
	// must return the real failure promptly rather than sleep toward a
	// deadline it cannot survive — or worse, return a bare context
	// error that hides what the server said.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	overloaded := errors.New("overloaded")
	calls := 0
	start := time.Now()
	err := Do(ctx, Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		func(context.Context) error {
			calls++
			return &hintedErr{overloaded, 10 * time.Second}
		})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do took %v; must give up without serving the 10s hint", elapsed)
	}
	if !errors.Is(err, overloaded) {
		t.Fatalf("err = %v, want the server's error surfaced", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (the hint can never fit the deadline)", calls)
	}
}

func TestDoJitterStaysInBoundsAndAboveHint(t *testing.T) {
	// Every recorded sleep must respect both sides of the contract:
	// never above the attempt's jitter cap, never below a Retry-After
	// hint that exceeds the drawn jitter.
	var delays []time.Duration
	const hint = 5 * time.Millisecond
	p := Policy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond, Multiplier: 2,
		Rand: rand.New(rand.NewSource(99)), Sleep: instant(&delays)}
	Do(context.Background(), p, func(context.Context) error {
		return &hintedErr{errors.New("blip"), hint}
	})
	if len(delays) != 7 {
		t.Fatalf("slept %d times, want 7", len(delays))
	}
	cap := 10 * time.Millisecond
	for attempt, d := range delays {
		if d < hint {
			t.Fatalf("attempt %d slept %v, below the %v Retry-After floor", attempt, d, hint)
		}
		if d > cap {
			t.Fatalf("attempt %d slept %v, above the %v jitter cap", attempt, d, cap)
		}
		if cap < 80*time.Millisecond {
			cap *= 2
		}
	}
}
