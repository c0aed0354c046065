package main

import (
	"math"
	"sort"

	"openei/internal/serving"
)

// minBeyond is the choosing-metrics rule for a percentile: it is reported
// as supported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of an ascending sample
// and how many samples lie strictly beyond its rank.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// summary is min/median/max of a set of per-segment (or per-run) values.
type summary struct{ min, median, max float64 }

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/2]
	if len(s)%2 == 0 {
		mid = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{min: s[0], median: mid, max: s[len(s)-1]}
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method) — the spread the
// acceptance driver computes. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := summarize(xs).median
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// stageWindow is what one window of serving did, recovered from two
// cumulative Engine.Stats() snapshots (summed over models and nodes).
type stageWindow struct {
	completed   uint64
	queueWaitMS float64 // window means over completed requests
	batchWaitMS float64
	execMS      float64
	batches     uint64
	avgBatch    float64
	largest     int // lifetime maximum at the closing snapshot
	rejected    uint64
	expired     uint64
	errors      uint64
}

// stageSum is a stage block's cumulative sum: avg × completed.
func stageSum(s *serving.StageLatency, completed uint64) float64 {
	if s == nil {
		return 0
	}
	return s.AvgMS * float64(completed)
}

// windowStats recovers window means from cumulative counters:
// Δ(avg × completed) ÷ Δcompleted per stage. Snapshots are matched by
// position in before/after being the same engines' Stats() in the same
// order; a model absent from before started the window at zero.
func windowStats(before, after [][]serving.ModelStats) stageWindow {
	var w stageWindow
	var qw, bw, ex, batched float64
	for i, node := range after {
		prev := map[string]serving.ModelStats{}
		if i < len(before) {
			for _, m := range before[i] {
				prev[m.Model] = m
			}
		}
		for _, m := range node {
			p := prev[m.Model]
			w.completed += m.Completed - p.Completed
			qw += stageSum(m.QueueWait, m.Completed) - stageSum(p.QueueWait, p.Completed)
			bw += stageSum(m.BatchWait, m.Completed) - stageSum(p.BatchWait, p.Completed)
			ex += stageSum(m.Exec, m.Completed) - stageSum(p.Exec, p.Completed)
			w.batches += m.Batches - p.Batches
			batched += m.AvgBatch*float64(m.Batches) - p.AvgBatch*float64(p.Batches)
			if m.LargestBatch > w.largest {
				w.largest = m.LargestBatch
			}
			w.rejected += m.RejectedOverload - p.RejectedOverload
			w.expired += m.ExpiredDeadline - p.ExpiredDeadline
			w.errors += m.Errors - p.Errors
		}
	}
	if w.completed > 0 {
		n := float64(w.completed)
		w.queueWaitMS, w.batchWaitMS, w.execMS = qw/n, bw/n, ex/n
	}
	if w.batches > 0 {
		w.avgBatch = batched / float64(w.batches)
	}
	return w
}
