package obs

import (
	"math/rand"
	"testing"
	"time"
)

// TestHistIndexMonotone checks the bucket mapping is monotone and that the
// reported upper bound really bounds every value mapped into the bucket.
func TestHistIndexMonotone(t *testing.T) {
	prev := -1
	for us := int64(0); us < 1<<20; us += 1 + us/64 {
		d := time.Duration(us) * time.Microsecond
		idx := histIndex(d)
		if idx < prev {
			t.Fatalf("histIndex not monotone at %v: %d < %d", d, idx, prev)
		}
		prev = idx
		if ub := histUpperBound(idx); ub < d {
			t.Fatalf("upper bound %v of bucket %d below member %v", ub, idx, d)
		}
	}
	// Absurd values clamp into the last bucket instead of indexing out of
	// range.
	if idx := histIndex(240 * time.Hour); idx != histBuckets-1 {
		t.Fatalf("clamp: got bucket %d, want %d", idx, histBuckets-1)
	}
	if idx := histIndex(-time.Second); idx != 0 {
		t.Fatalf("negative duration: got bucket %d, want 0", idx)
	}
}

// TestHistogramQuantiles feeds a known distribution and checks the
// quantile estimates land within the histogram's resolution (~6% high).
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(3))
	// 95% of mass at ~1ms, 5% at ~80ms.
	for i := 0; i < 2000; i++ {
		base := time.Millisecond
		if i%20 == 0 {
			base = 80 * time.Millisecond
		}
		jitter := time.Duration(rng.Intn(50)) * time.Microsecond
		h.Observe(base + jitter)
	}
	s := h.Snapshot()
	if s.Count != 2000 {
		t.Fatalf("count = %d, want 2000", s.Count)
	}
	if p50 := s.Quantile(0.50); p50 < time.Millisecond || p50 > 1200*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 80*time.Millisecond || p99 > 90*time.Millisecond {
		t.Fatalf("p99 = %v, want ~80ms", p99)
	}
	if q := s.Quantile(0); q > 1100*time.Microsecond {
		t.Fatalf("q0 = %v, want ≈ min", q)
	}
}

// TestSnapshotSub checks interval deltas (buckets, count and sum), including the pipeline-rebuilt
// case where the counters restarted from zero.
func TestSnapshotSub(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	first := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(10 * time.Millisecond)
	}
	delta := h.Snapshot().Sub(first)
	if delta.Count != 50 || delta.Sum != 500*time.Millisecond {
		t.Fatalf("delta count = %d sum = %v, want 50 and 500ms", delta.Count, delta.Sum)
	}
	if p50 := delta.Quantile(0.5); p50 < 10*time.Millisecond || p50 > 11*time.Millisecond {
		t.Fatalf("delta p50 = %v, want ~10ms (old 1ms mass must not leak in)", p50)
	}
	// A fresh histogram (a swapped-out pipeline rebuilt) has a smaller total
	// than the stale snapshot; Sub must fall back to the current counts.
	var fresh Histogram
	fresh.Observe(2 * time.Millisecond)
	d2 := fresh.Snapshot().Sub(first)
	if d2.Count != 1 {
		t.Fatalf("reset delta count = %d, want 1", d2.Count)
	}
}

// TestQuantileRankBeyondMass: when racing observers (or interval
// subtraction) leave Count larger than the summed bucket mass, Quantile
// must answer with the largest observed bucket, never the ~35-minute
// top-bucket sentinel that would read as a catastrophic tail.
func TestQuantileRankBeyondMass(t *testing.T) {
	var s HistogramSnapshot
	s.Buckets[histIndex(2*time.Millisecond)] = 5
	s.Count = 10 // rank(0.95) = 9 ≥ mass 5
	if got := s.Quantile(0.95); got > 3*time.Millisecond {
		t.Fatalf("over-counted snapshot p95 = %v, want ~2ms (largest observed bucket)", got)
	}
	// All-zero buckets with a non-zero count (pure race residue) stay 0.
	var empty HistogramSnapshot
	empty.Count = 3
	if got := empty.Quantile(0.95); got != 0 {
		t.Fatalf("empty-bucket snapshot p95 = %v, want 0", got)
	}
}
