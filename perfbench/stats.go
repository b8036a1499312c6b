package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// quantile is one reported percentile: the value, the percentile actually
// reported (lower than the one asked for when the samples cannot support
// it) and the sample count.
type quantile struct {
	Value float64
	Q     float64
	N     int
}

// percentile returns the nearest-rank q-quantile of samples under the
// sample-count rule: the rank is capped so that at least minBeyond samples
// lie beyond it, and the returned Q says which percentile that rank is.
// With too few samples for any percentile (n ≤ minBeyond) it reports the
// smallest sample. samples is sorted in place.
func percentile(samples []float64, q float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		rank = 1
	}
	return quantile{Value: samples[rank-1], Q: float64(rank) / float64(n), N: n}
}

// Host contention — a busy neighbour on a shared machine — only ever
// makes a run slower, never faster. A figure built from many segments of
// a run (windows, slices, passes, repetitions) is therefore reported at
// the quartile that contention cannot reach until it has hit three
// quarters of the segments: the lower quartile of times and sizes, the
// upper quartile of rates.
const (
	calmLow  = 0.25 // for times, latencies and sizes
	calmHigh = 0.75 // for rates
)

// quartile returns the nearest-rank q-quantile of vals, which it sorts in
// place; 0 for none.
func quartile(vals []float64, q float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(q * float64(n)))
	return vals[max(rank, 1)-1]
}

// windowedPercentile cuts samples, kept in time order, into consecutive
// windows of at least window samples (the last window takes the
// remainder), takes the q-percentile of each under the sample-count rule,
// and reports the lower quartile over windows. Q is the lowest percentile
// a window could support and N the total sample count. samples is not
// modified.
func windowedPercentile(samples []float64, q float64, window int) quantile {
	n := len(samples)
	k := max(n/window, 1)
	vals := make([]float64, 0, k)
	out := quantile{Q: q, N: n}
	for w := 0; w < k; w++ {
		lo, hi := w*n/k, (w+1)*n/k
		p := percentile(append([]float64(nil), samples[lo:hi]...), q)
		vals = append(vals, p.Value)
		out.Q = math.Min(out.Q, p.Q)
	}
	out.Value = quartile(vals, calmLow)
	return out
}

// schedule is an open-loop send schedule: chunk j's last event is due
// (j+1)·period after the run's clock started, whatever happened to
// earlier chunks.
type schedule struct {
	period float64 // nanoseconds per chunk
}

// due is when chunk j became complete and should have been sent.
func (s schedule) due(j int) int64 {
	return int64(math.Round(float64(j+1) * s.period))
}

// outcome is what one stream (one session, or the local engine) did
// with the events it was offered, as verified after the run.
type outcome struct {
	// Offered is the number of events the stream was given.
	Offered uint64
	// Refused marks a session the daemon refused outright; every offered
	// event then fails.
	Refused bool
	// Shed is the number of events the daemon dropped under its shed
	// policy.
	Shed uint64
	// Missing counts complete intervals whose profile never arrived;
	// Mismatched counts those whose profile differs from the reference.
	Missing, Mismatched int
	// IntervalLength is the events per interval.
	IntervalLength uint64
}

// failedEvents counts the events outcome o failed: all of them for a
// refused session, else the shed events plus every event of each missing
// or mismatched interval, capped at the number offered.
func (o outcome) failedEvents() uint64 {
	if o.Refused {
		return o.Offered
	}
	f := o.Shed + uint64(o.Missing+o.Mismatched)*o.IntervalLength
	if f > o.Offered {
		f = o.Offered
	}
	return f
}

// failedFrac is the share of offered events that failed across outcomes.
func failedFrac(outs []outcome) (failed, attempted uint64, frac float64) {
	for _, o := range outs {
		failed += o.failedEvents()
		attempted += o.Offered
	}
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	return failed, attempted, frac
}
