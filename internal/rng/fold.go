package rng

// Fold is a running FNV-1a fingerprint over 64-bit words, each folded in
// as its eight bytes, low byte first. Every determinism digest in the
// tree — a fault plan, a chaos outcome, a fleet run, a campaign — is one
// of these, so two digests disagree only because their inputs do.
type Fold uint64

// NewFold returns the empty fingerprint (the FNV-1a offset basis).
func NewFold() Fold { return 14695981039346656037 }

// Mix folds v into the fingerprint.
func (f *Fold) Mix(v uint64) {
	h := uint64(*f)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= 1099511628211
		v >>= 8
	}
	*f = Fold(h)
}
