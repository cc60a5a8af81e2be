// Histogram: a fixed log2-bucket latency distribution with a zero-alloc
// Record, the distribution counterpart of the registry's counters. The
// owning component records durations (picoseconds, usually) on its own
// hot path; percentiles are derived only at snapshot time, on the cold
// pull path, so the zero-perturbation contract (DESIGN.md §10)
// holds: recording is plain array arithmetic on simulator-owned state,
// and reading never touches the hot path at all.
package telemetry

import "math/bits"

// HistogramBuckets is the fixed bucket count: bucket 0 holds the value
// 0, bucket i (1..64) holds values in [2^(i-1), 2^i). Indexing is
// bits.Len64(v), so Record is a handful of integer ops and never
// allocates or branches on configuration.
const HistogramBuckets = 65

// Histogram is a fixed-size log2 histogram. The zero value is ready to
// use. Like the registry it lives on the engine goroutine and is not
// safe for concurrent use; cross-goroutine reads go through Snapshot
// copies taken on the engine side.
type Histogram struct {
	count   uint64
	sum     uint64
	max     uint64
	buckets [HistogramBuckets]uint64
}

// Record adds one observation. Hot path: a few integer ops on fixed
// storage, no allocation, no branching beyond the max update.
func (h *Histogram) Record(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(v)]++
}

// Count reports how many observations were recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Absorb merges o's observations into h. Cold path (snapshot-time
// aggregation across nodes and links).
func (h *Histogram) Absorb(o *Histogram) {
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// bucketUpper is the largest value bucket i can hold: 0 for bucket 0,
// 2^i-1 otherwise (saturating at the top bucket).
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(i)) - 1
}

// quantile returns the smallest bucket upper bound covering at least
// ceil(count*num/den) observations, clamped to the observed max. Pure
// integer arithmetic, so the same observations give bit-identical
// percentiles on every platform and every run.
func quantile(buckets []uint64, count, max, num, den uint64) uint64 {
	if count == 0 {
		return 0
	}
	rank := (count*num + den - 1) / den
	var cum uint64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			u := bucketUpper(i)
			if u > max {
				u = max
			}
			return u
		}
	}
	return max
}

// HistogramSnapshot is one immutable observation of a Histogram:
// count/sum/max plus deterministic log2-bucket percentiles (each
// percentile is the upper bound of the bucket containing that rank,
// clamped to the observed max — an overestimate by at most 2x, but
// exactly reproducible). Buckets carries the raw bucket counts (trimmed
// to the last nonzero bucket) so snapshots can be merged losslessly;
// it is excluded from JSON to keep Machine.Telemetry output compact.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	P50     uint64   `json:"p50"`
	P95     uint64   `json:"p95"`
	P99     uint64   `json:"p99"`
	Buckets []uint64 `json:"-"`
}

// Snapshot derives the immutable view. Cold path; the one allocation
// (the trimmed bucket slice) happens on the observer's side of the
// pull, never on the recording path.
func (h *Histogram) Snapshot() HistogramSnapshot {
	top := -1
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i] != 0 {
			top = i
			break
		}
	}
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	if top >= 0 {
		s.Buckets = append([]uint64(nil), h.buckets[:top+1]...)
	}
	s.fillPercentiles()
	return s
}

func (s *HistogramSnapshot) fillPercentiles() {
	s.P50 = quantile(s.Buckets, s.Count, s.Max, 50, 100)
	s.P95 = quantile(s.Buckets, s.Count, s.Max, 95, 100)
	s.P99 = quantile(s.Buckets, s.Count, s.Max, 99, 100)
}

// Merge combines two snapshots (e.g. the same latency across two fleet
// runs) into one, recomputing the percentiles from the merged buckets.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	m := HistogramSnapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Max:   s.Max,
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
	n := len(s.Buckets)
	if len(o.Buckets) > n {
		n = len(o.Buckets)
	}
	if n > 0 {
		m.Buckets = make([]uint64, n)
		copy(m.Buckets, s.Buckets)
		for i, v := range o.Buckets {
			m.Buckets[i] += v
		}
	}
	m.fillPercentiles()
	return m
}

// MergeHistogramMaps folds src into dst (allocating dst if nil) in
// sorted key order, so callers merging across runs or attempts stay
// deterministic without each reinventing the sorted-iteration dance.
func MergeHistogramMaps(dst, src map[string]HistogramSnapshot) map[string]HistogramSnapshot {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]HistogramSnapshot, len(src))
	}
	for _, name := range snapNames(src) {
		dst[name] = dst[name].Merge(src[name])
	}
	return dst
}
