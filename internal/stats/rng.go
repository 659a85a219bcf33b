// Package stats provides the deterministic random-number machinery,
// probability distributions, and summary statistics used by every
// simulation and experiment in this repository.
//
// All randomness flows through *RNG, a xoshiro256++ generator seeded via
// splitmix64. This keeps experiment output bit-reproducible across runs
// and across Go releases (the stdlib generators do not promise stable
// streams between versions).
package stats

import "math"

// RNG is a deterministic pseudo-random number generator
// (xoshiro256++ with splitmix64 seeding).
//
// RNG is not safe for concurrent use; give each goroutine its own
// stream via Split or NewRNG with distinct seeds.
type RNG struct {
	s [4]uint64

	// Box-Muller cache for NormFloat64.
	haveGauss bool
	gauss     float64
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used only to expand seeds into full generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator whose stream is fully determined by seed.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if it had been created by
// NewRNG(seed).
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	r.haveGauss = false
	// xoshiro requires a nonzero state; splitmix64 output of any seed is
	// astronomically unlikely to be all zero, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent generator from r's stream. The child
// stream is a deterministic function of r's state, and deriving it
// advances r, so successive Splits yield distinct streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1); it never returns 0,
// making it safe as the argument of math.Log.
func (r *RNG) Float64Open() float64 {
	for {
		if f := r.Float64(); f > 0 {
			return f
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1).
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// NormFloat64 returns a standard normal float64 (mean 0, stddev 1),
// generated by the Box-Muller transform with one cached deviate.
func (r *RNG) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	u1 := r.Float64Open()
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.gauss = mag * math.Sin(2*math.Pi*u2)
	r.haveGauss = true
	return mag * math.Cos(2*math.Pi*u2)
}

// Choose fills dst with k distinct uniform indices from [0, n),
// k = len(dst), using a partial Fisher-Yates over a scratch slice.
// It panics if k > n. The scratch slice must have length n and is used
// to avoid per-call allocation on hot polling paths; its contents are
// overwritten.
func (r *RNG) Choose(dst []int, n int, scratch []int) {
	k := len(dst)
	if k > n {
		panic("stats: Choose with k > n")
	}
	if len(scratch) < n {
		panic("stats: Choose scratch too small")
	}
	s := scratch[:n]
	for i := range s {
		s[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		s[i], s[j] = s[j], s[i]
		dst[i] = s[i]
	}
}

// ChooseIdentity is Choose without the O(n) re-initialization: ident
// must hold the identity permutation (ident[i] == i for i < n); the
// partial Fisher-Yates swaps are recorded in swaps (length >= len(dst))
// and undone before returning, restoring ident. The random stream
// consumed and the indices produced are exactly those of Choose with a
// fresh scratch, but each call costs O(k) instead of O(n) — the
// difference between polling d of 10k servers and touching all 10k.
func (r *RNG) ChooseIdentity(dst []int, n int, ident, swaps []int) {
	k := len(dst)
	if k > n {
		panic("stats: ChooseIdentity with k > n")
	}
	if len(ident) < n {
		panic("stats: ChooseIdentity ident too small")
	}
	if len(swaps) < k {
		panic("stats: ChooseIdentity swaps too small")
	}
	s := ident[:n]
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		s[i], s[j] = s[j], s[i]
		dst[i] = s[i]
		swaps[i] = j
	}
	for i := k - 1; i >= 0; i-- {
		j := swaps[i]
		s[i], s[j] = s[j], s[i]
	}
}
