// Package rng provides the deterministic, counter-based parallel random
// number generator used throughout the simulator. Every lattice site (or
// node) owns an independent stream derived from a global seed and its
// site identifier, so random fields are identical no matter how the
// lattice is partitioned across simulated nodes — the property behind
// the paper's bit-identical re-run verification (§4, experiment E10).
package rng

import "math"

// Stream is an independent random stream. The zero value is a valid
// stream with seed 0, id 0.
type Stream struct {
	key uint64
	ctr uint64
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// New derives the stream for entity id under the global seed. Streams
// with different (seed, id) pairs are statistically independent.
func New(seed, id uint64) *Stream { s := Of(seed, id); return &s }

// Of is New as a value: a loop drawing from one stream per site re-keys
// one variable rather than allocating a stream per site.
func Of(seed, id uint64) Stream {
	return Stream{key: mix64(mix64(seed) ^ mix64(id^0xA5A5A5A5A5A5A5A5))}
}

// Clone returns a copy of the stream at its current position.
func (s *Stream) Clone() *Stream { c := *s; return &c }

// Pos returns the number of values drawn so far.
func (s *Stream) Pos() uint64 { return s.ctr }

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.ctr++
	return mix64(s.key ^ mix64(s.ctr))
}

// Float64 returns the next uniform value in [0, 1) with 53 bits of
// precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal draw (Box-Muller; one value per
// call, the partner value is discarded to keep the stream position a
// simple function of the draw count).
func (s *Stream) NormFloat64() float64 {
	var u float64
	for {
		u = s.Float64()
		if u > 0 {
			break
		}
	}
	v := s.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Intn returns a uniform integer in [0, n).
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}
