package fleet

import (
	"context"
	"sync"
	"time"
)

// PeerHealth is one peer's probe state, as reported by the status
// endpoint and the detector's snapshot.
type PeerHealth struct {
	Peer     Peer `json:"peer"`
	Routable bool `json:"routable"`
	// Streak counts consecutive probe results in the current direction:
	// successes while routable is pending/true, failures while pending
	// a fall. Exposed for operators watching a flapping peer.
	Streak int `json:"streak"`
}

// detector tracks remote-peer routability with rise/fall hysteresis: a
// peer must answer `fall` consecutive probes wrong to leave the ring
// and `rise` consecutive probes right to rejoin it, so one dropped
// packet does not reshuffle job ownership. A probe passes only if both
// /healthz (liveness) and /readyz (readiness) do — a draining peer is
// alive but must stop receiving forwards.
type detector struct {
	peers   []Peer // remotes only; the node accounts for itself
	probe   func(ctx context.Context, p Peer) error
	rise    int
	fall    int
	timeout time.Duration
	onFlap  func(p Peer, routable bool)

	mu    sync.Mutex
	state map[string]*probeState
}

type probeState struct {
	routable  bool
	successes int // consecutive
	failures  int // consecutive
}

func newDetector(peers []Peer, rise, fall int, timeout time.Duration,
	probe func(ctx context.Context, p Peer) error,
	onFlap func(p Peer, routable bool)) *detector {
	d := &detector{
		peers: peers, probe: probe,
		rise: rise, fall: fall, timeout: timeout, onFlap: onFlap,
		state: make(map[string]*probeState, len(peers)),
	}
	for _, p := range peers {
		// Start optimistic: at boot the roster is assumed up, so the
		// very first submissions route normally instead of all landing
		// on the local node while probes warm up. A dead peer costs
		// `fall` probe rounds of failovers, which the forwarding path
		// absorbs.
		d.state[p.ID] = &probeState{routable: true}
	}
	return d
}

// SetPeers swaps the probed peer set — the seam dynamic membership
// drives on every table change. Known peers keep their hysteresis
// state as long as their URL is unchanged; a new peer (or a known ID
// reappearing at a new address) starts optimistic, exactly like the
// boot roster, so a freshly joined node is routable immediately and a
// dead one costs the usual `fall` rounds. Removed peers drop their
// state entirely — a tombstoned member cannot linger as "routable".
func (d *detector) SetPeers(peers []Peer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := make(map[string]Peer, len(d.peers))
	for _, p := range d.peers {
		old[p.ID] = p
	}
	next := make(map[string]*probeState, len(peers))
	for _, p := range peers {
		if s, ok := d.state[p.ID]; ok && old[p.ID].URL == p.URL {
			next[p.ID] = s
			continue
		}
		next[p.ID] = &probeState{routable: true}
	}
	d.peers = append([]Peer(nil), peers...)
	d.state = next
}

// ProbeOnce probes every peer concurrently and folds the verdicts into
// the hysteresis state. Exposed (via the Node) so tests can drive the
// detector deterministically instead of racing a ticker.
func (d *detector) ProbeOnce(ctx context.Context) {
	d.mu.Lock()
	peers := append([]Peer(nil), d.peers...)
	d.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, d.timeout)
			defer cancel()
			d.observe(p, d.probe(pctx, p) == nil)
		}(p)
	}
	wg.Wait()
}

// observe applies one probe verdict with rise/fall hysteresis. A peer
// removed by SetPeers mid-probe is silently dropped.
func (d *detector) observe(p Peer, ok bool) {
	d.mu.Lock()
	s := d.state[p.ID]
	if s == nil {
		d.mu.Unlock()
		return
	}
	var flipped bool
	if ok {
		s.failures = 0
		s.successes++
		if !s.routable && s.successes >= d.rise {
			s.routable = true
			flipped = true
		}
	} else {
		s.successes = 0
		s.failures++
		if s.routable && s.failures >= d.fall {
			s.routable = false
			flipped = true
		}
	}
	routable := s.routable
	d.mu.Unlock()
	if flipped && d.onFlap != nil {
		d.onFlap(p, routable)
	}
}

// Routable returns the remote peers currently in the ring, in roster
// order.
func (d *detector) Routable() []Peer {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Peer, 0, len(d.peers))
	for _, p := range d.peers {
		if d.state[p.ID].routable {
			out = append(out, p)
		}
	}
	return out
}

// Snapshot reports every remote peer's probe state.
func (d *detector) Snapshot() []PeerHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PeerHealth, 0, len(d.peers))
	for _, p := range d.peers {
		s := d.state[p.ID]
		streak := s.successes
		if s.failures > 0 {
			streak = s.failures
		}
		out = append(out, PeerHealth{Peer: p, Routable: s.routable, Streak: streak})
	}
	return out
}
