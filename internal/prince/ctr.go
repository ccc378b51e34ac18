package prince

// CTR is PRINCE in counter mode: a cryptographically strong 64-bit PRNG as
// used by the RRS hardware for random swap destinations. It is
// deterministic given the key and starting counter, which keeps experiments
// reproducible.
//
// Blocks are enciphered four counters at a time into a small buffer that
// Next drains in order, so the stream is exactly Encrypt(0), Encrypt(1), …
// while the four independent lookup chains overlap in the CPU.
//
// CTR is not safe for concurrent use; give each goroutine its own instance.
type CTR struct {
	c   *Cipher
	buf [4]uint64 // Encrypt(ctr-4) … Encrypt(ctr-1)
	pos int       // next unread entry of buf; len(buf) when empty
	ctr uint64    // counter of the next block to encipher
}

// NewCTR returns a CTR generator over a PRINCE cipher keyed with (k0, k1),
// starting at counter 0.
func NewCTR(k0, k1 uint64) *CTR {
	g := &CTR{c: New(k0, k1)}
	g.pos = len(g.buf)
	return g
}

// Seeded returns a CTR generator derived from a single 64-bit seed. The two
// key halves are expanded with splitmix64 so that nearby seeds give
// unrelated keys.
func Seeded(seed uint64) *CTR {
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	return NewCTR(next(), next())
}

// Next returns the next 64 random bits.
func (g *CTR) Next() uint64 { return take(g, (*CTR).refill) }

// take returns the next buffered block, calling refill first when the
// buffer is empty. refill arrives as a parameter because the inliner
// charges a call to a parameter 17 instead of 57: that keeps Next and
// Float64 (Next plus a conversion), the per-draw paths, within its
// budget of 80, so both inline into their callers. The indirect call
// runs once per four draws.
func take(g *CTR, refill func(*CTR)) uint64 {
	if g.pos >= len(g.buf) {
		refill(g)
	}
	v := g.buf[g.pos]
	g.pos++
	return v
}

// refill enciphers the next four counters into the buffer. It stays out
// of line, away from the draws that do not need it.
//
//go:noinline
func (g *CTR) refill() {
	g.buf = run4(&g.c.enc, g.ctr)
	g.ctr += uint64(len(g.buf))
	g.pos = 0
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Rejection sampling keeps the distribution exactly uniform, matching the
// security analysis (the buckets-and-balls model assumes uniform bucket
// choice).
func (g *CTR) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prince: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return g.Next() & (n - 1)
	}
	// Reject values in the final partial range [0, 2^64 mod n). That
	// bound is below n, so a draw of at least n is accepted without
	// computing it.
	v := g.Next()
	if v < n {
		limit := -n % n // (2^64 - n) mod n == 2^64 mod n
		for v < limit {
			v = g.Next()
		}
	}
	return v % n
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *CTR) Intn(n int) int {
	if n <= 0 {
		panic("prince: Intn with n <= 0")
	}
	return int(g.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (g *CTR) Float64() float64 {
	return float64(g.Next()>>11) / (1 << 53)
}

// Hash64 is a keyed low-latency hash built from a single PRINCE encryption,
// as used for CAT set indexing (different keys give independent hashes).
type Hash64 struct {
	c *Cipher
}

// NewHash64 creates a keyed hash.
func NewHash64(k0, k1 uint64) *Hash64 {
	return &Hash64{c: New(k0, k1)}
}

// Sum maps x to a pseudo-random 64-bit value.
func (h *Hash64) Sum(x uint64) uint64 {
	return h.c.Encrypt(x)
}

// Sum2 returns (h0.Sum(x), h1.Sum(x)) from one interleaved pass: the two
// table-driven schedules advance round by round together, so the CPU
// overlaps their two dependent lookup chains instead of running them
// back to back. The CAT's two set indexes are computed this way.
func Sum2(h0, h1 *Hash64, x uint64) (uint64, uint64) {
	return run2(&h0.c.enc, &h1.c.enc, x)
}
