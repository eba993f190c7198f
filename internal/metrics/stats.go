// Package metrics provides the statistics used throughout the evaluation:
// running summaries, exponential moving averages, percentiles, Jain's
// fairness index, and the paper's FTHR-weighted Cumulative Fairness Index
// (Eq. 4), plus a time-series recorder for figure generation.
package metrics

import (
	"fmt"
	"math"
)

// Running accumulates count/mean/variance in one pass (Welford).
type Running struct {
	n        int
	mean, m2 float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the sample variance (0 with fewer than 2 observations).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean — the error bars of Figures 8 and 10.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.Std() / math.Sqrt(float64(r.n))
}

// String renders "mean ± ci95 (n)".
func (r *Running) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", r.Mean(), r.CI95(), r.n)
}

// EMA is an exponential moving average with weight alpha on the newest
// sample: v = alpha*x + (1-alpha)*v. The paper uses alpha = 0.8 for FTHR
// smoothing (Eq. 2).
type EMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEMA builds an EMA with the given weight in (0, 1].
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EMA alpha %v outside (0,1]", alpha))
	}
	return &EMA{alpha: alpha}
}

// Update folds in a new observation and returns the smoothed value. The
// first observation primes the average directly.
func (e *EMA) Update(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current smoothed value (0 before any update).
func (e *EMA) Value() float64 { return e.value }

// Histogram is a fixed-bucket histogram over [min, max); out-of-range
// observations clamp into the edge buckets.
type Histogram struct {
	min, max float64
	buckets  []uint64
	count    uint64
}

// NewHistogram builds a histogram with n buckets spanning [min, max).
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic("metrics: invalid histogram shape")
	}
	return &Histogram{min: min, max: max, buckets: make([]uint64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.buckets)) * (x - h.min) / (h.max - h.min))
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
}

// Merge folds other's observations into h. The two histograms must
// share the same shape ([min, max) bounds and bucket count) — merging
// differently-shaped histograms would silently smear observations
// across bucket boundaries, so it is rejected instead. A nil other is
// a no-op, letting rollups fold optional per-source histograms without
// guarding every call site.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if other.min != h.min || other.max != h.max || len(other.buckets) != len(h.buckets) { //vulcanvet:ok floateq — bounds are assigned configuration, exact shape match is the point
		return fmt.Errorf("metrics: merging histogram [%v,%v)x%d into [%v,%v)x%d",
			other.min, other.max, len(other.buckets), h.min, h.max, len(h.buckets))
	}
	for i, b := range other.buckets {
		h.buckets[i] += b
	}
	h.count += other.count
	return nil
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// HistSummary condenses a histogram into the percentiles dashboards and
// the obs registry exporter report.
type HistSummary struct {
	Count uint64
	P50   float64
	P95   float64
	P99   float64
}

// Summary returns the p50/p95/p99 summary of the histogram. An empty
// histogram summarizes to the zero value.
func (h *Histogram) Summary() HistSummary {
	if h.count == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: h.count,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Quantile returns an approximate q-quantile from the histogram using
// the nearest-rank definition: the midpoint of the bucket holding the
// ceil(q·n)-th smallest observation. The answer is always a bucket a
// sample actually landed in — a single-sample histogram reports that
// sample's bucket for every q, and Quantile(1) never overshoots to the
// histogram's upper bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	width := (h.max - h.min) / float64(len(h.buckets))
	last := 0
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		cum += b
		last = i
		if cum >= rank {
			return h.min + width*(float64(i)+0.5)
		}
	}
	// Unreachable for q in [0,1] (cum reaches h.count ≥ rank), kept as a
	// safe fallback: the highest non-empty bucket.
	return h.min + width*(float64(last)+0.5)
}
