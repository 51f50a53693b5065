package obs

import "math/bits"

// numBuckets bounds the bucket array: 8 exact buckets for values 0..7 plus
// 4 sub-buckets per power of two up to 2^63.
const numBuckets = 8 + 61*4

// Histogram is a constant-memory streaming histogram over non-negative
// int64 samples (latencies in nanoseconds, queue depths, sizes).
//
// Bucketing is log-scaled with 4 sub-buckets per octave — about ±12 %
// relative error on quantiles — and is computed with pure integer bit
// arithmetic (bits.Len64), never floating-point logarithms, so two runs
// observing the same samples always fill exactly the same buckets on every
// platform. Values 0..7 get exact unit buckets; negative samples clamp
// to 0.
type Histogram struct {
	name    string
	count   uint64
	sum     int64
	min     int64
	max     int64
	buckets [numBuckets]uint64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < 8 {
		return int(u)
	}
	l := bits.Len64(u)                   // 4..64 here
	sub := int((u >> (uint(l) - 3)) & 3) // the two bits after the leading one
	return 8 + (l-4)*4 + sub
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(b int) (lo, hi int64) {
	if b < 8 {
		return int64(b), int64(b) + 1
	}
	l := (b-8)/4 + 4
	sub := (b - 8) % 4
	lo = int64(4+sub) << (uint(l) - 3)
	hi = lo + (int64(1) << (uint(l) - 3))
	return lo, hi
}

// Observe records one sample. Nil-safe; zero allocations.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Quantile returns the q-th quantile (q in [0,1]) by linear interpolation
// inside the containing bucket, clamped to the observed min/max so the
// tails never report values outside the population.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// rank is the 1-based index of the sample we want.
	rank := uint64(q*float64(h.count-1)) + 1
	var seen uint64
	for b := 0; b < numBuckets; b++ {
		n := h.buckets[b]
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(b)
			// Position of the wanted sample inside this bucket, in (0,1].
			frac := float64(rank-seen) / float64(n)
			v := lo + int64(frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		seen += n
	}
	return h.max
}
