// Package prince implements the PRINCE lightweight 64-bit block cipher
// (Borghoff et al., ASIACRYPT 2012).
//
// The RRS paper uses PRINCE in two places: as a CTR-mode pseudo-random
// number generator for picking random swap destinations ("a low-latency
// cipher ... in CTR-mode with a 64-bit cycle counter as input"), and as the
// keyed low-latency hash inside the Collision Avoidance Table (inherited
// from MIRAGE). This package provides the block cipher, its inverse, and a
// CTR-mode generator.
//
// Conventions follow the PRINCE specification: the 64-bit state is written
// as 16 hex nibbles with nibble 0 the most significant; bit 0 of the
// matrix-layer vectors is the most significant bit of the state.
package prince

// sbox is the PRINCE S-box; sboxInv its inverse.
var sbox = [16]uint64{0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4}

var sboxInv [16]uint64

// rc holds the 12 round constants. rc[11] is the alpha-reflection constant.
var rc = [12]uint64{
	0x0000000000000000,
	0x13198a2e03707344,
	0xa4093822299f31d0,
	0x082efa98ec4e6c89,
	0x452821e638d01377,
	0xbe5466cf34e90c6c,
	0x7ef84f78fd955cb1,
	0x85840851f1ac43aa,
	0xc882d32f25323c54,
	0x64a51195e0e3610d,
	0xd3b5a399ca0c2399,
	0xc0ac29b7c97c50dd,
}

// Alpha is the reflection constant: Decrypt(k0,k1) == Encrypt(k0', k1^Alpha).
const Alpha = 0xc0ac29b7c97c50dd

// m16 holds, for the two 16x16 binary matrices M̂0 and M̂1, the output mask
// contributed by each input bit (bit 0 = most significant bit of the 16-bit
// chunk).
var m16 [2][16]uint16

// shift-rows permutation on nibbles (AES-style, column-major state):
// output nibble i comes from input nibble 5i mod 16. srPerm[i] gives the
// source nibble for output nibble i; srInv is its inverse.
var srPerm, srInv [16]int

func init() {
	for i, v := range sbox {
		sboxInv[v] = uint64(i)
	}

	// The four 4x4 building-block matrices: Mi is the identity with row i
	// zeroed (rows listed most-significant bit first).
	var block [4][4]uint16
	for i := 0; i < 4; i++ {
		for r := 0; r < 4; r++ {
			if r == i {
				block[i][r] = 0
			} else {
				block[i][r] = 1 << (3 - r) // row has single 1 at column r
			}
		}
	}
	// M̂0 block rows start at M0, M̂1 at M1, each row of blocks rotating.
	for which := 0; which < 2; which++ {
		for br := 0; br < 4; br++ { // block row
			for bc := 0; bc < 4; bc++ { // block column
				bi := (which + br + bc) % 4 // block index M_{bi}
				for r := 0; r < 4; r++ {
					rowBits := block[bi][r] // 4-bit row of the block
					for c := 0; c < 4; c++ {
						if rowBits&(1<<(3-c)) != 0 {
							outBit := br*4 + r // 0 = MSB of chunk
							inBit := bc*4 + c
							// input bit inBit contributes to output bit outBit
							m16[which][inBit] |= 1 << (15 - outBit)
						}
					}
				}
			}
		}
	}
	for i := 0; i < 16; i++ {
		srPerm[i] = (5 * i) % 16
	}
	for i, src := range srPerm {
		srInv[src] = i
	}

	initFast()
}

func subBytes(x uint64, box *[16]uint64) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		nib := (x >> (60 - 4*i)) & 0xF
		out |= box[nib] << (60 - 4*i)
	}
	return out
}

// mat16 multiplies the 16-bit chunk v by M̂_which.
func mat16(which int, v uint16) uint16 {
	var out uint16
	for b := 0; b < 16; b++ {
		if v&(1<<(15-b)) != 0 {
			out ^= m16[which][b]
		}
	}
	return out
}

// mPrime applies the involutory M' layer: diag(M̂0, M̂1, M̂1, M̂0) over the
// four 16-bit chunks (chunk 0 = most significant).
func mPrime(x uint64) uint64 {
	c0 := mat16(0, uint16(x>>48))
	c1 := mat16(1, uint16(x>>32))
	c2 := mat16(1, uint16(x>>16))
	c3 := mat16(0, uint16(x))
	return uint64(c0)<<48 | uint64(c1)<<32 | uint64(c2)<<16 | uint64(c3)
}

func permuteNibbles(x uint64, perm *[16]int) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		nib := (x >> (60 - 4*perm[i])) & 0xF
		out |= nib << (60 - 4*i)
	}
	return out
}

// Cipher is a PRINCE instance with a fixed 128-bit key (k0 || k1), held
// as the precomputed encryption round constants.
type Cipher struct {
	enc    schedule
	k0, k1 uint64
}

// New creates a PRINCE cipher from the two 64-bit key halves.
func New(k0, k1 uint64) *Cipher {
	return &Cipher{enc: newSchedule(k0, k1, deriveK0p(k0)), k0: k0, k1: k1}
}

// deriveK0p returns k0' = (k0 >>> 1) XOR (k0 >> 63).
func deriveK0p(k0 uint64) uint64 { return (k0>>1 | k0<<63) ^ (k0 >> 63) }

// Encrypt enciphers one 64-bit block.
func (c *Cipher) Encrypt(m uint64) uint64 { return c.enc.run(m) }

// Decrypt deciphers one 64-bit block using the alpha-reflection property:
// the same core keyed with k1 ⊕ Alpha and the two whitening keys swapped.
// It derives those round constants on every call, since the simulator
// only ever enciphers.
func (c *Cipher) Decrypt(m uint64) uint64 {
	dec := newSchedule(deriveK0p(c.k0), c.k1^Alpha, c.k0)
	return dec.run(m)
}

// core is the reference (specification-shaped) PRINCE-core, kept for
// cross-checking the table-driven fast path.
func core(s, k1 uint64) uint64 {
	s ^= k1 ^ rc[0]
	for i := 1; i <= 5; i++ {
		s = subBytes(s, &sbox)
		s = mPrime(s)
		s = permuteNibbles(s, &srPerm)
		s ^= rc[i] ^ k1
	}
	s = subBytes(s, &sbox)
	s = mPrime(s)
	s = subBytes(s, &sboxInv)
	for i := 6; i <= 10; i++ {
		s ^= rc[i] ^ k1
		s = permuteNibbles(s, &srInv)
		s = mPrime(s)
		s = subBytes(s, &sboxInv)
	}
	s ^= rc[11] ^ k1
	return s
}
