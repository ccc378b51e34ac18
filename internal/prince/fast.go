package prince

// Table-driven fast path. The S-box acts on nibbles and M' and ShiftRows
// are linear, so each round's "S then linear map" factors into eight
// byte-indexed lookups XORed together (a T-table cipher):
//
//	L(S(x)) = L(S8(x_0)<<56) ⊕ … ⊕ L(S8(x_7)), with S8 the S-box on both
//	nibbles of a byte and x_b the b-th most significant byte.
//
// The forward rounds are F = SR∘M'∘S and the middle layer starts with
// M'∘S. The backward rounds end in S⁻¹, which is not linear, so they are
// re-bracketed to start with it instead: after the middle layer's M', each
// round maps u to M'(SR⁻¹(S⁻¹(u) ⊕ K)) = G(u) ⊕ M'(SR⁻¹(K)) with
// G = M'∘SR⁻¹∘S⁻¹, and the trailing S⁻¹ of round 10 runs as a byte-wise
// table before the final key addition. The per-key constants M'(SR⁻¹(K))
// are precomputed in New. The nibble-loop core in prince.go remains the
// specification; the fuzz and quick-check tests cross-check the two and
// the official vectors pin both down.
var (
	fwdTab [8][256]uint64 // SR(M'(S(x))) per byte position
	midTab [8][256]uint64 // M'(S(x)) per byte position
	bwdTab [8][256]uint64 // M'(SR⁻¹(S⁻¹(x))) per byte position
	// sInv8 is S⁻¹ on both nibbles of a byte.
	sInv8 [256]uint8
)

func initFast() {
	var s8 [256]uint64
	for v := 0; v < 256; v++ {
		s8[v] = sbox[v>>4]<<4 | sbox[v&0xF]
		sInv8[v] = uint8(sboxInv[v>>4]<<4 | sboxInv[v&0xF])
	}
	for b := 0; b < 8; b++ {
		shift := 56 - 8*uint(b)
		for v := 0; v < 256; v++ {
			s := s8[v] << shift
			m := mPrime(s)
			fwdTab[b][v] = permuteNibbles(m, &srPerm)
			midTab[b][v] = m
			bwdTab[b][v] = mPrime(permuteNibbles(uint64(sInv8[v])<<shift, &srInv))
		}
	}
}

// tround applies the byte-indexed table tab to the eight bytes of x.
func tround(x uint64, tab *[8][256]uint64) uint64 {
	return tab[0][uint8(x>>56)] ^ tab[1][uint8(x>>48)] ^ tab[2][uint8(x>>40)] ^
		tab[3][uint8(x>>32)] ^ tab[4][uint8(x>>24)] ^ tab[5][uint8(x>>16)] ^
		tab[6][uint8(x>>8)] ^ tab[7][uint8(x)]
}

// subInv applies S⁻¹ to every nibble of x.
func subInv(x uint64) uint64 {
	return uint64(sInv8[uint8(x>>56)])<<56 | uint64(sInv8[uint8(x>>48)])<<48 |
		uint64(sInv8[uint8(x>>40)])<<40 | uint64(sInv8[uint8(x>>32)])<<32 |
		uint64(sInv8[uint8(x>>24)])<<24 | uint64(sInv8[uint8(x>>16)])<<16 |
		uint64(sInv8[uint8(x>>8)])<<8 | uint64(sInv8[uint8(x)])
}

// schedule holds one direction's per-key round constants: the whole
// transform is out ⊕ S⁻¹(…) of in ⊕ m pushed through the table rounds.
type schedule struct {
	in  uint64    // k0 ⊕ k1 ⊕ RC0 (outer whitening folded in)
	fwd [5]uint64 // RC_i ⊕ k1, i = 1..5
	bwd [5]uint64 // M'(SR⁻¹(RC_i ⊕ k1)), i = 6..10
	out uint64    // RC11 ⊕ k1 ⊕ k0' (outer whitening folded in)
}

// newSchedule precomputes the constants of whiten-out(core(m ⊕ win, k1)).
func newSchedule(win, k1, wout uint64) schedule {
	ks := schedule{in: win ^ k1 ^ rc[0], out: rc[11] ^ k1 ^ wout}
	for i := 0; i < 5; i++ {
		ks.fwd[i] = rc[1+i] ^ k1
		ks.bwd[i] = mPrime(permuteNibbles(rc[6+i]^k1, &srInv))
	}
	return ks
}

// run is the table-driven whitened PRINCE-core.
func (ks *schedule) run(m uint64) uint64 {
	s := m ^ ks.in
	for i := range ks.fwd {
		s = tround(s, &fwdTab) ^ ks.fwd[i]
	}
	s = tround(s, &midTab)
	for i := range ks.bwd {
		s = tround(s, &bwdTab) ^ ks.bwd[i]
	}
	return subInv(s) ^ ks.out
}

// run2 is run under two schedules at once. Each round's two lookup
// chains are independent, so writing them side by side lets the core
// issue both sets of loads before either result is needed.
func run2(a, b *schedule, m uint64) (uint64, uint64) {
	s, t := m^a.in, m^b.in
	for i := range a.fwd {
		s, t = tround(s, &fwdTab)^a.fwd[i], tround(t, &fwdTab)^b.fwd[i]
	}
	s, t = tround(s, &midTab), tround(t, &midTab)
	for i := range a.bwd {
		s, t = tround(s, &bwdTab)^a.bwd[i], tround(t, &bwdTab)^b.bwd[i]
	}
	return subInv(s) ^ a.out, subInv(t) ^ b.out
}
