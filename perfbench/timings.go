package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be trusted.
const tailBeyond = 10

// tailShare is the share of the slowest samples the reported tail
// averages.
const tailShare = 0.05

// tailLadder lists the tail percentiles the human-readable report may
// print, highest first; a run prints the highest one that keeps tailBeyond
// samples beyond it, and the median when none can (too few samples for a
// tail).
var tailLadder = []float64{0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.5}

// timings holds every latency sample of one end-to-end operation, so its
// quantiles are exact order statistics. (loadgen.Hist, which aggregates the
// per-layer spans, reports bucket upper bounds at 1/32 resolution: too
// coarse for a figure that must resolve a few percent run to run.)
type timings struct {
	d      []time.Duration
	sorted bool
}

func (t *timings) add(d time.Duration) {
	t.d = append(t.d, d)
	t.sorted = false
}

func (t *timings) merge(o *timings) {
	t.d = append(t.d, o.d...)
	t.sorted = false
}

func (t *timings) count() int { return len(t.d) }

// mean is the arithmetic mean (0 when empty).
func (t *timings) mean() time.Duration {
	if len(t.d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range t.d {
		sum += d
	}
	return sum / time.Duration(len(t.d))
}

// quantile returns the nearest-rank q-quantile (0 when empty).
func (t *timings) quantile(q float64) time.Duration {
	if len(t.d) == 0 {
		return 0
	}
	t.ensureSorted()
	return t.d[rank(q, len(t.d))-1]
}

func (t *timings) ensureSorted() {
	if !t.sorted {
		sort.Slice(t.d, func(i, j int) bool { return t.d[i] < t.d[j] })
		t.sorted = true
	}
}

// iqm is the interquartile mean: the mean of the middle half of the
// samples (the median when there are fewer than 4). Like the median it
// ignores the outliers at both ends. Unlike the median it moves in
// proportion when the samples fall into two clusters: the reference host
// runs in a fast and a slow regime that alternate every few tens of
// seconds (per-second mean exchange latency moved between 2.0 and 2.9 ms
// within one run), and the median jumped between the clusters from run to
// run as their shares crossed one half.
func (t *timings) iqm() time.Duration {
	if len(t.d) < 4 {
		return t.quantile(0.5)
	}
	t.ensureSorted()
	mid := t.d[len(t.d)/4 : len(t.d)-len(t.d)/4]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return sum / time.Duration(len(mid))
}

// tailMean is the mean of the slowest tailShare of the samples, and of at
// least tailBeyond of them (of all of them when there are fewer). A tail
// percentile jumped when a cluster of slow samples held close to its share
// of the run: churn's p98 read 2.0 or 5.0 ms from run to run as a cluster
// near 5 ms made up a little under or over 2% of the opens. The mean of
// the slowest samples moves in proportion to the cluster instead.
func (t *timings) tailMean() time.Duration {
	n := len(t.d)
	if n == 0 {
		return 0
	}
	k := max(int(math.Ceil(tailShare*float64(n)-1e-9)), min(tailBeyond, n))
	t.ensureSorted()
	var sum time.Duration
	for _, d := range t.d[n-k:] {
		sum += d
	}
	return sum / time.Duration(k)
}

// tailQuantile is the highest trusted tail percentile at this sample
// count.
func (t *timings) tailQuantile() float64 { return tailQuantile(len(t.d)) }

// rank is the 1-based nearest-rank position of the q-quantile of n
// samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailQuantile returns the highest percentile of tailLadder with at least
// tailBeyond of n samples beyond it, or the median when none has.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(q, n) >= tailBeyond {
			return q
		}
	}
	return 0.5
}
