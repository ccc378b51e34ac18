// Package fleet turns a set of rrs-serve processes into one logical
// job service: any node accepts any submission, ownership is decided by
// rendezvous hashing over the spec content hash and the live peer set,
// non-owners forward to the owner with retry/backoff, and a health-gated
// failure detector shrinks the ring so work re-routes when a node dies.
// Idle nodes steal queued work from backed-up peers, and every node
// consults the whole fleet's result stores before re-running a spec.
//
// The design leans on two properties the single-node service already
// has: submissions are idempotent (content-hash coalescing), and the
// engine is deterministic (a re-run after a lost node is byte-identical).
// Together they make the fleet's failover story simple — when a job's
// home node dies mid-poll, the client's existing "404 ⇒ resubmit the
// spec" recovery re-routes the work to the next owner, and exactly-once
// *delivery* holds without any consensus protocol.
package fleet

import "sort"

// Peer identifies one fleet member: a short stable ID — it prefixes the
// node's job ids, which is how any node routes a poll to a job's home —
// and the base URL peers reach it at.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// score is the rendezvous (highest-random-weight) weight of placing a
// spec hash on a peer: FNV-1a over the peer id, a separator, and the
// hash. Every node computes identical scores from identical inputs, so
// the fleet agrees on ownership with no coordination, and removing a
// peer only moves the keys that peer owned.
func score(peerID, hash string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(peerID); i++ {
		h ^= uint64(peerID[i])
		h *= prime
	}
	h ^= 0xff // separator: ("ab","c") must not collide with ("a","bc")
	h *= prime
	for i := 0; i < len(hash); i++ {
		h ^= uint64(hash[i])
		h *= prime
	}
	return h
}

// Owner returns the rendezvous owner of hash among peers — rank[0].
// Exposed so tooling and tests can predict placement with the same
// arithmetic the fleet routes by. ok is false for an empty peer set.
func Owner(hash string, peers []Peer) (Peer, bool) {
	if len(peers) == 0 {
		return Peer{}, false
	}
	return rank(hash, peers)[0], true
}

// rank orders peers for a spec content hash by descending rendezvous
// score: rank(...)[0] is the owner, and the rest is the failover order
// a forwarder walks when the owner is unreachable. Ties (only possible
// with duplicate ids) break by id so the order is total.
func rank(hash string, peers []Peer) []Peer {
	out := append([]Peer(nil), peers...)
	sort.Slice(out, func(a, b int) bool {
		sa, sb := score(out[a].ID, hash), score(out[b].ID, hash)
		if sa != sb {
			return sa > sb
		}
		return out[a].ID < out[b].ID
	})
	return out
}
