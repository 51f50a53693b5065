package metrics

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Summary accumulates count, mean, variance, min and max using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 with none.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with none.
func (s *Summary) Max() float64 { return s.max }

// Sample retains every observation for exact quantile queries. The zero
// value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns 0 with no observations.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Fraction returns the share of observations satisfying pred.
func (s *Sample) Fraction(pred func(float64) bool) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	k := 0
	for _, x := range s.xs {
		if pred(x) {
			k++
		}
	}
	return float64(k) / float64(len(s.xs))
}

// MeanP99 returns the mean of ds and its nearest-rank 99th percentile — the
// element at index (n-1)*99/100 of the sorted sample, where Sample.Percentile
// would interpolate between neighbours. Both are 0 for an empty ds, which is
// left in its order.
func MeanP99(ds []time.Duration) (mean, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return sum / time.Duration(len(sorted)), sorted[(len(sorted)-1)*99/100]
}

// Gini returns the Gini coefficient of xs (0 = perfect equality, →1 =
// maximal concentration). Negative inputs are treated as zero; an empty or
// all-zero input yields 0.
func Gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		vals = append(vals, x)
	}
	sort.Float64s(vals)
	var cum, total float64
	for i, x := range vals {
		cum += x * float64(i+1)
		total += x
	}
	if total == 0 {
		return 0
	}
	n := float64(len(vals))
	return (2*cum)/(n*total) - (n+1)/n
}

// HHI returns the Herfindahl–Hirschman index of the shares implied by xs:
// the sum of squared market shares, in [1/n, 1]. Values above 0.25 are
// conventionally "highly concentrated".
func HHI(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		if x > 0 {
			total += x
		}
	}
	if total == 0 {
		return 0
	}
	var hhi float64
	for _, x := range xs {
		if x > 0 {
			share := x / total
			hhi += share * share
		}
	}
	return hhi
}

// TopShare returns the combined share of the k largest values of xs.
func TopShare(xs []float64, k int) float64 {
	if len(xs) == 0 || k <= 0 {
		return 0
	}
	vals := make([]float64, len(xs))
	copy(vals, xs)
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	if k > len(vals) {
		k = len(vals)
	}
	var top, total float64
	for i, x := range vals {
		if x < 0 {
			continue
		}
		total += x
		if i < k {
			top += x
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}
