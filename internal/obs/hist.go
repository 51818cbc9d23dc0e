// Package obs is the observability substrate of the control station: a
// zero-dependency latency histogram (HDR-style log-linear buckets), the
// end-to-end pipeline trace (per-sequence stage clocks over a lock-free
// ring), a Prometheus text-exposition writer, and a small leveled
// logger. Everything here is allocation-free on the record path — the
// instruments ride the hot structs they measure and must never perturb
// them.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: HDR-style log-linear sub-bucketing. Values 0..7 µs get
// exact buckets; every octave [2^o, 2^(o+1)) above that is split into 4
// sub-buckets of width 2^(o-2), so the relative quantile error is
// bounded by ~12.5% at every scale instead of the factor-of-two a pure
// power-of-two layout gives. The top octave (o = 3+histOctaves-1)
// absorbs everything from ~134s up — far beyond any sane latency.
const (
	histExact   = 8  // values 0..7 µs, one bucket each
	histOctaves = 24 // octaves o = 3..26 (8µs .. ~134s), 4 sub-buckets each
	HistBuckets = histExact + 4*histOctaves
)

// histBucket maps a microsecond value to its bucket index.
func histBucket(us uint64) int {
	if us < histExact {
		return int(us)
	}
	o := bits.Len64(us) - 1 // >= 3
	idx := histExact + 4*(o-3) + int((us>>(o-2))&3)
	if idx >= HistBuckets {
		return HistBuckets - 1
	}
	return idx
}

// histUpper is the inclusive upper bound, in microseconds, of bucket idx.
func histUpper(idx int) int64 {
	if idx < histExact {
		return int64(idx)
	}
	k := idx - histExact
	o := uint(3 + k/4)
	sub := int64(k%4) + 1
	return int64(1)<<o + sub<<(o-2) - 1
}

// HistStats is a point-in-time summary of a histogram.
type HistStats struct {
	Count     uint64
	MeanMicro int64
	P50Micro  int64
	P95Micro  int64
	P99Micro  int64
}

// Hist is a concurrent latency histogram. Recording is three atomic adds
// — no lock, no allocation — so it can sit on any hot path. The zero
// value is ready to use.
type Hist struct {
	count    atomic.Uint64
	sumMicro atomic.Uint64
	buckets  [HistBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveMicros(int64(d / time.Microsecond))
}

// ObserveMicros records one microsecond value.
func (h *Hist) ObserveMicros(us int64) {
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sumMicro.Add(uint64(us))
	h.buckets[histBucket(uint64(us))].Add(1)
}

// Quantile returns the upper bound, in microseconds, of the bucket
// containing the p-th percentile (p in (0, 1]). Nearest-rank with a
// ceiling: at 10 samples, p99 is the 10th-slowest, not the 9th — a floor
// would hide a single slow outlier exactly on the low-traffic routes
// where it matters.
func (h *Hist) Quantile(p float64) int64 {
	b, n := h.snapshot()
	return quantile(&b, n, p)
}

// snapshot reads every bucket once and returns them with their sum.
// ObserveMicros bumps count before the bucket, so a total read from
// count can exceed the buckets read after it; ranking against the sum
// of the buckets actually read keeps every quantile inside them, and
// quantiles taken from one snapshot are ordered.
func (h *Hist) snapshot() (b [HistBuckets]uint64, n uint64) {
	for i := range b {
		b[i] = h.buckets[i].Load()
		n += b[i]
	}
	return b, n
}

func quantile(b *[HistBuckets]uint64, total uint64, p float64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range b {
		cum += c
		if cum >= rank {
			return histUpper(i)
		}
	}
	return histUpper(HistBuckets - 1)
}

// Stats summarizes the histogram from one snapshot of its buckets.
func (h *Hist) Stats() HistStats {
	b, n := h.snapshot()
	st := HistStats{
		Count:    n,
		P50Micro: quantile(&b, n, 0.50),
		P95Micro: quantile(&b, n, 0.95),
		P99Micro: quantile(&b, n, 0.99),
	}
	if n > 0 {
		st.MeanMicro = int64(h.sumMicro.Load() / n)
	}
	return st
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.count.Load() }

// SumMicros returns the sum of recorded values in microseconds.
func (h *Hist) SumMicros() uint64 { return h.sumMicro.Load() }
