package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is the process's one latency distribution: an HDR-style
// log-linear histogram where each power-of-two octave of microseconds is
// split into histSub linear sub-buckets, bounding the relative quantile
// error at ~1/histSub (±6%) while keeping observation a few atomic adds —
// no lock on the serving hot path. It backs the serving engine's model,
// tenant and exit-head stats, the autopilot's per-tick quantiles, the
// tracer's tail threshold and the Prometheus histogram families. The zero
// value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Uint64
}

const (
	// histSubBits sub-divides each octave into 2^histSubBits buckets.
	histSubBits = 4
	histSub     = 1 << histSubBits
	// histMaxShift caps the top octave; values beyond ~2^(histMaxShift+
	// histSubBits+1) µs (≈ 35 min at 26) clamp into the last bucket.
	histMaxShift = 26
	histBuckets  = (histMaxShift + 2) * histSub
)

// histIndex maps a duration to its bucket. Monotone in d.
func histIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	shift := bits.Len64(uint64(us)) - 1 - histSubBits
	if shift < 0 {
		shift = 0
	}
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return shift*histSub + int(us>>uint(shift))
}

// histUpperBound is the largest duration a bucket can hold — the value a
// quantile lookup reports (conservative: real latency is ≤ the estimate).
func histUpperBound(idx int) time.Duration {
	if idx < 2*histSub {
		return time.Duration(idx) * time.Microsecond
	}
	shift := idx/histSub - 1
	frac := idx - shift*histSub
	us := (int64(frac+1) << uint(shift)) - 1
	return time.Duration(us) * time.Microsecond
}

// octaveUpperBound is the upper edge of the octave row (power-of-two
// band, 2^k−1 µs) holding d.
func octaveUpperBound(d time.Duration) time.Duration {
	return histUpperBound(histIndex(d) | (histSub - 1))
}

// Observe records one duration and returns the number recorded so far,
// this one included.
func (h *Histogram) Observe(d time.Duration) uint64 {
	h.buckets[histIndex(d)].Add(1)
	h.sumNS.Add(uint64(d))
	return h.count.Add(1)
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	// Count is read first: racing observers can only make bucket sums ≥
	// Count, never leave a quantile rank pointing past the counted mass.
	s.Count = h.count.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = time.Duration(h.sumNS.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Subtracting
// two snapshots yields the distribution of an interval, which is what
// the autopilot's control loop quantizes each tick.
type HistogramSnapshot struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     time.Duration // total observed duration
}

// Sub returns the distribution observed since prev. A histogram that was
// discarded and rebuilt restarts its counters; a shrinking count is
// detected and the current snapshot is returned whole.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if s.Count < prev.Count {
		return s
	}
	d := HistogramSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	for i := range s.Buckets {
		if s.Buckets[i] >= prev.Buckets[i] {
			d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
		}
	}
	return d
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding that rank; 0 when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	last := -1
	for i := range s.Buckets {
		if s.Buckets[i] == 0 {
			continue
		}
		last = i
		cum += s.Buckets[i]
		if cum > rank {
			return histUpperBound(i)
		}
	}
	// Racing observers (Count is loaded before the buckets) and interval
	// subtraction can leave rank ≥ the summed bucket mass; answer with
	// the largest *observed* bucket instead of the ~35-minute top-bucket
	// sentinel, which would read as a catastrophic tail to the autopilot.
	if last >= 0 {
		return histUpperBound(last)
	}
	return 0
}
