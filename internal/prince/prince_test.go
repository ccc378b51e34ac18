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
		if h1.Sum(x)%64 == h2.Sum(x)%64 {
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

func BenchmarkCTRNext(b *testing.B) {
	g := NewCTR(1, 2)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= g.Next()
	}
	_ = sink
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
// core for any key, and Decrypt must invert it.
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
	})
}
