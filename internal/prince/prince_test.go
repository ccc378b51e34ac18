package prince

import (
	"testing"
	"testing/quick"
)

// Official test vectors from the PRINCE paper (Appendix A).
var vectors = []struct {
	pt, k0, k1, ct uint64
}{
	{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x818665aa0d02dfda},
	{0xffffffffffffffff, 0x0000000000000000, 0x0000000000000000, 0x604ae6ca03c20ada},
	{0x0000000000000000, 0xffffffffffffffff, 0x0000000000000000, 0x9fb51935fc3df524},
	{0x0000000000000000, 0x0000000000000000, 0xffffffffffffffff, 0x78a54cbe737bb7ef},
	{0x0123456789abcdef, 0x0000000000000000, 0xfedcba9876543210, 0xae25ad3ca8fa9ccf},
}

func TestEncryptVectors(t *testing.T) {
	for i, v := range vectors {
		c := New(v.k0, v.k1)
		if got := c.Encrypt(v.pt); got != v.ct {
			t.Errorf("vector %d: Encrypt(%016x) = %016x, want %016x", i, v.pt, got, v.ct)
		}
	}
}

func TestDecryptVectors(t *testing.T) {
	for i, v := range vectors {
		c := New(v.k0, v.k1)
		if got := c.Decrypt(v.ct); got != v.pt {
			t.Errorf("vector %d: Decrypt(%016x) = %016x, want %016x", i, v.ct, got, v.pt)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := New(0xdeadbeefcafebabe, 0x0123456789abcdef)
	f := func(m uint64) bool { return c.Decrypt(c.Encrypt(m)) == m }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncryptIsPermutation(t *testing.T) {
	// Distinct plaintexts must produce distinct ciphertexts.
	c := New(1, 2)
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 4096; i++ {
		ct := c.Encrypt(i)
		if prev, ok := seen[ct]; ok {
			t.Fatalf("collision: Encrypt(%d) == Encrypt(%d) == %016x", i, prev, ct)
		}
		seen[ct] = i
	}
}

func TestMPrimeInvolution(t *testing.T) {
	f := func(x uint64) bool { return mPrime(mPrime(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftRowsInverse(t *testing.T) {
	f := func(x uint64) bool {
		return permuteNibbles(permuteNibbles(x, &srPerm), &srInv) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSboxInverse(t *testing.T) {
	for i := uint64(0); i < 16; i++ {
		if sboxInv[sbox[i]] != i {
			t.Fatalf("sboxInv[sbox[%d]] = %d", i, sboxInv[sbox[i]])
		}
	}
}

func TestCTRDeterminism(t *testing.T) {
	a, b := NewCTR(7, 9), NewCTR(7, 9)
	for i := 0; i < 100; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("step %d: %016x != %016x", i, x, y)
		}
	}
}

func TestCTRDistinctKeysDiffer(t *testing.T) {
	a, b := NewCTR(7, 9), NewCTR(7, 10)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d/100 outputs matched across distinct keys", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	g := Seeded(42)
	for _, n := range []uint64{1, 2, 3, 7, 128, 128 << 10, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := g.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Seeded(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Seeded(1).Intn(0)
}

func TestUint64nRoughlyUniform(t *testing.T) {
	g := Seeded(99)
	const n, draws = 8, 8000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[g.Uint64n(n)]++
	}
	for i, c := range counts {
		if c < draws/n/2 || c > draws/n*2 {
			t.Errorf("bucket %d: count %d far from expected %d", i, c, draws/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := Seeded(5)
	for i := 0; i < 1000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestHash64IndependentKeys(t *testing.T) {
	h1 := NewHash64(0x1111, 0x2222)
	h2 := NewHash64(0x3333, 0x4444)
	matches := 0
	for x := uint64(0); x < 256; x++ {
		a, b := Sum2(h1, h2, x)
		if a != h1.Sum(x) || b != h2.Sum(x) {
			t.Fatalf("Sum2(h1, h2, %d) = (%016x, %016x), want (%016x, %016x)", x, a, b, h1.Sum(x), h2.Sum(x))
		}
		if a%64 == b%64 {
			matches++
		}
	}
	// Two independent hashes into 64 sets agree ~1/64 of the time; 256/64=4
	// expected. Flag only gross correlation.
	if matches > 30 {
		t.Fatalf("hashes agree on %d/256 inputs — not independent", matches)
	}
}

func TestSeededDistinctSeedsDiffer(t *testing.T) {
	if Seeded(1).Next() == Seeded(2).Next() {
		t.Fatal("distinct seeds produced identical first output")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c := New(0x0123456789abcdef, 0xfedcba9876543210)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.Encrypt(uint64(i))
	}
	_ = sink
}

func BenchmarkHash64SumPair(b *testing.B) {
	h0, h1 := NewHash64(1, 2), NewHash64(3, 4)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h0.Sum(uint64(i)) ^ h1.Sum(uint64(i))
	}
	_ = sink
}

func BenchmarkSum2(b *testing.B) {
	h0, h1 := NewHash64(1, 2), NewHash64(3, 4)
	var sink uint64
	for i := 0; i < b.N; i++ {
		x, y := Sum2(h0, h1, uint64(i))
		sink ^= x ^ y
	}
	_ = sink
}

func BenchmarkCTRNext(b *testing.B) {
	g := NewCTR(1, 2)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= g.Next()
	}
	_ = sink
}

// BenchmarkCTRIntn draws bounded values as NewRubix's shuffle does, with
// a bound that is not a power of two.
func BenchmarkCTRIntn(b *testing.B) {
	g := NewCTR(1, 2)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= g.Intn(100003)
	}
	_ = sink
}

// TestCTRBufferedMatchesEncrypt checks that the buffered generator's
// stream is Encrypt(0), Encrypt(1), … whatever mix of draws consumes it.
// The reference bounded draw is the plain rejection loop, so the check
// also covers Uint64n's accept-before-computing-the-bound shortcut; the
// bound near 2^63 rejects about half its draws.
func TestCTRBufferedMatchesEncrypt(t *testing.T) {
	const k0, k1 = 0x0123456789abcdef, 0xfedcba9876543210
	g, c := NewCTR(k0, k1), New(k0, k1)
	var ctr uint64
	ref := func() uint64 {
		v := c.Encrypt(ctr)
		ctr++
		return v
	}
	refUint64n := func(n uint64) uint64 {
		if n&(n-1) == 0 {
			return ref() & (n - 1)
		}
		limit := -n % n
		for {
			if v := ref(); v >= limit {
				return v % n
			}
		}
	}
	const near63 = 1<<63 + 12345
	bounded := 0
	for op := 0; op < 5000; op++ {
		switch op % 7 {
		case 0, 5:
			if got, want := g.Next(), ref(); got != want {
				t.Fatalf("op %d: Next = %016x, want %016x", op, got, want)
			}
		case 1:
			if got, want := g.Float64(), float64(ref()>>11)/(1<<53); got != want {
				t.Fatalf("op %d: Float64 = %v, want %v", op, got, want)
			}
		case 2:
			if got, want := g.Intn(100003), int(refUint64n(100003)); got != want {
				t.Fatalf("op %d: Intn = %d, want %d", op, got, want)
			}
			bounded++
		case 3:
			if got, want := g.Uint64n(1<<17), refUint64n(1<<17); got != want {
				t.Fatalf("op %d: Uint64n(2^17) = %d, want %d", op, got, want)
			}
			bounded++
		case 4, 6:
			if got, want := g.Uint64n(near63), refUint64n(near63); got != want {
				t.Fatalf("op %d: Uint64n(2^63+12345) = %d, want %d", op, got, want)
			}
			bounded++
		}
	}
	// Each op consumes one block unless a bounded draw rejected some.
	if rejected := ctr - 5000; rejected < 500 {
		t.Fatalf("%d rejections over %d bounded draws; the rejection branch barely ran", rejected, bounded)
	}
	if got, want := g.Next(), ref(); got != want {
		t.Fatalf("final Next = %016x, want %016x", got, want)
	}
}

// refEncrypt is the specification-shaped PRINCE: the reference core
// between the k0 / k0' whitening keys.
func refEncrypt(k0, k1, m uint64) uint64 {
	return core(m^k0, k1) ^ deriveK0p(k0)
}

func TestFastMatchesReference(t *testing.T) {
	f := func(k0, k1, m uint64) bool {
		c := New(k0, k1)
		ct := c.Encrypt(m)
		return ct == refEncrypt(k0, k1, m) && c.Decrypt(ct) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReferenceVectors pins the reference core to the official vectors,
// so the fast path is checked against a known-good oracle.
func TestReferenceVectors(t *testing.T) {
	for i, v := range vectors {
		if got := refEncrypt(v.k0, v.k1, v.pt); got != v.ct {
			t.Errorf("vector %d: reference core gives %016x, want %016x", i, got, v.ct)
		}
	}
}

// FuzzCipherMatchesReference checks the precomputed per-key round
// constants of both directions: Encrypt must equal the whitened reference
// core for any key, and Decrypt must invert it. It also checks that the
// interleaved Sum2 under two fuzzed keys (k0, k1) and (k1, k0) equals
// two single evaluations of the reference core, and that every lane of
// run4 from counter m equals the reference core on its own counter.
func FuzzCipherMatchesReference(f *testing.F) {
	for _, v := range vectors {
		f.Add(v.k0, v.k1, v.pt)
	}
	f.Fuzz(func(t *testing.T, k0, k1, m uint64) {
		c := New(k0, k1)
		ct := c.Encrypt(m)
		if want := refEncrypt(k0, k1, m); ct != want {
			t.Fatalf("Encrypt(%016x) under (%016x, %016x) = %016x, reference %016x", m, k0, k1, ct, want)
		}
		if pt := c.Decrypt(ct); pt != m {
			t.Fatalf("Decrypt(Encrypt(%016x)) = %016x under (%016x, %016x)", m, pt, k0, k1)
		}
		a, b := Sum2(NewHash64(k0, k1), NewHash64(k1, k0), m)
		if wa, wb := refEncrypt(k0, k1, m), refEncrypt(k1, k0, m); a != wa || b != wb {
			t.Fatalf("Sum2 of %016x under (%016x, %016x) and its swap = (%016x, %016x), reference (%016x, %016x)",
				m, k0, k1, a, b, wa, wb)
		}
		for i, v := range run4(&c.enc, m) {
			if want := refEncrypt(k0, k1, m+uint64(i)); v != want {
				t.Fatalf("run4 lane %d from %016x under (%016x, %016x) = %016x, reference %016x", i, m, k0, k1, v, want)
			}
		}
	})
}

// TestSum2Vectors pins Sum2 to the official vectors in both lanes: each
// vector's key in one lane, the next vector's key in the other.
func TestSum2Vectors(t *testing.T) {
	for i, v := range vectors {
		w := vectors[(i+1)%len(vectors)]
		a, b := Sum2(NewHash64(v.k0, v.k1), NewHash64(w.k0, w.k1), v.pt)
		if a != v.ct || b != refEncrypt(w.k0, w.k1, v.pt) {
			t.Errorf("vector %d: Sum2 = (%016x, %016x), want (%016x, %016x)", i, a, b, v.ct, refEncrypt(w.k0, w.k1, v.pt))
		}
		a, b = Sum2(NewHash64(w.k0, w.k1), NewHash64(v.k0, v.k1), v.pt)
		if b != v.ct {
			t.Errorf("vector %d in the second lane: Sum2 gives %016x, want %016x", i, b, v.ct)
		}
	}
}
