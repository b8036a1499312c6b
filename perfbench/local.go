package main

import (
	"context"
	"fmt"
	"time"

	"hwprof"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/shard"
)

// localStreamEvents is the length of the local-long stream: four
// 1M-event intervals, replayed pass after pass through a fresh engine.
const localStreamEvents = 4_000_000

// localConfig is the local-long profiler configuration.
func localConfig() core.Config { return hwprof.BestMultiHash(hwprof.LongIntervalConfig()) }

// localRef is the reference the local engine's output is checked against.
type localRef struct {
	digests    []uint64
	netErrPct  float64 // mean formula (1) error over the stream's intervals
	candidates float64 // mean profile size
}

// localReference profiles stream on the per-event Profiler.Observe path —
// one MultiHash with the configuration of the single shard hwprof.Profile
// builds — next to the perfect oracle, and scores every interval with
// the paper's formula (1).
func localReference(stream []event.Tuple) (localRef, error) {
	cfg := localConfig()
	mh, err := hwprof.New(shard.Config{Core: cfg, NumShards: 1}.ShardConfig(0))
	if err != nil {
		return localRef{}, err
	}
	perfect := hwprof.NewPerfect()
	var ref localRef
	var errSum, candSum float64
	for i, tp := range stream {
		mh.Observe(tp)
		perfect.Observe(tp)
		if uint64(i+1)%cfg.IntervalLength == 0 {
			h, p := mh.EndInterval(), perfect.EndInterval()
			ref.digests = append(ref.digests, profileDigest(h))
			errSum += hwprof.EvalInterval(p, h, cfg.ThresholdCount()).Total
			candSum += float64(len(h))
		}
	}
	if n := float64(len(ref.digests)); n > 0 {
		ref.netErrPct = 100 * errSum / n
		ref.candidates = candSum / n
	}
	return ref, nil
}

// localSource hands the stream to the engine batch by batch, stopping at
// a deadline, and notes when each interval's last event was handed over.
// With a tracer it records a local.batch span from each handover to the
// engine's next request: the time the engine held the batch.
type localSource struct {
	stream   []event.Tuple
	pos      int
	interval int
	deadline time.Time
	base     time.Time
	handed   []int64
	tr       *tracer
	open     int32
	sample   func() // called at the start of every interval but the first
}

func (s *localSource) Next() (event.Tuple, bool) {
	var one [1]event.Tuple
	if s.NextBatch(one[:]) == 0 {
		return event.Tuple{}, false
	}
	return one[0], true
}

func (s *localSource) NextBatch(buf []event.Tuple) int {
	s.tr.end(s.open)
	s.open = -1
	if s.pos == len(s.stream) || !time.Now().Before(s.deadline) {
		return 0
	}
	if s.sample != nil && s.pos > 0 && s.pos%s.interval == 0 {
		s.sample()
	}
	n := copy(buf, s.stream[s.pos:])
	s.pos += n
	if s.pos%s.interval == 0 {
		s.handed = append(s.handed, int64(time.Since(s.base)))
	}
	s.open = s.tr.begin("local.batch", -1, 0)
	return n
}

func (s *localSource) Err() error { return nil }

// localRun is what one timed local-long run observed.
type localRun struct {
	elapsed   time.Duration // sum of the measured passes' durations
	cpu       time.Duration // process CPU time over the measured passes
	rates     []float64     // events/s of each measured pass
	latencies []float64     // ms, per completed interval, in time order
	outcome   outcome
}

// eventsPerSecond is the upper quartile of the passes' throughputs.
func (r *localRun) eventsPerSecond() float64 {
	return quartile(append([]float64(nil), r.rates...), calmHigh)
}

// runLocal drives the stream through hwprof.Profile, a fresh engine per
// pass, for warm and then for dur of engine time; only the passes after
// warm are measured. Every pass's profiles are checked against ref
// between passes, with the clock stopped.
func runLocal(stream []event.Tuple, ref localRef, warm, dur time.Duration, tr *tracer) (*localRun, error) {
	cfg := localConfig()
	r := &localRun{outcome: outcome{IntervalLength: cfg.IntervalLength}}
	for warmed := time.Duration(0); warmed < warm; {
		start := time.Now()
		src := &localSource{stream: stream, interval: int(cfg.IntervalLength), deadline: start.Add(warm - warmed), base: start, open: -1}
		if _, err := hwprof.Profile(context.Background(), src, hwprof.WithConfig(cfg), hwprof.WithoutOracle()); err != nil {
			return nil, fmt.Errorf("local warm-up pass: %w", err)
		}
		warmed += time.Since(start)
	}
	for r.elapsed < dur {
		start := time.Now()
		if tr != nil {
			tr.base = start.Add(-r.elapsed)
		}
		src := &localSource{stream: stream, interval: int(cfg.IntervalLength), deadline: start.Add(dur - r.elapsed),
			base: start, tr: tr, open: -1}
		var arrivals []int64
		var profiles []map[event.Tuple]uint64
		c0 := cpuTime()
		_, err := hwprof.Profile(context.Background(), src, hwprof.WithConfig(cfg), hwprof.WithoutOracle(),
			hwprof.OnInterval(func(_ int, _, h map[event.Tuple]uint64) {
				arrivals = append(arrivals, int64(time.Since(start)))
				profiles = append(profiles, h)
			}))
		took := time.Since(start)
		r.cpu += cpuTime() - c0
		r.elapsed += took
		if err != nil {
			return nil, fmt.Errorf("local pass: %w", err)
		}
		r.rates = append(r.rates, float64(src.pos)/took.Seconds())
		r.outcome.Offered += uint64(src.pos)
		for k, at := range arrivals {
			r.latencies = append(r.latencies, float64(at-src.handed[k])/1e6)
		}
		for k, h := range profiles {
			if profileDigest(h) != ref.digests[k] {
				r.outcome.Mismatched++
			}
		}
	}
	return r, nil
}

// localHeapProbe drives one pass of the stream through hwprof.Profile and
// calls sample at the start of every interval but the first. The engine
// loop asks for the next batch only after it has ended the previous
// interval and handed its profile over, so nothing is in flight then.
func localHeapProbe(stream []event.Tuple, sample func()) error {
	cfg := localConfig()
	src := &localSource{stream: stream, interval: int(cfg.IntervalLength), deadline: time.Now().Add(time.Hour),
		base: time.Now(), open: -1, sample: sample}
	_, err := hwprof.Profile(context.Background(), src, hwprof.WithConfig(cfg), hwprof.WithoutOracle())
	return err
}

// localSetupReps is how many times a local-long run measures set-up.
const localSetupReps = 101

// newLocalEngine is local-long's set-up: engine construction.
func newLocalEngine() (func() error, error) {
	sp, err := hwprof.NewSharded(localConfig(), 1)
	if err != nil {
		return nil, err
	}
	return func() error { sp.Close(); return nil }, nil
}
