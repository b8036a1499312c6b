// Package hwprof is a Go reproduction of "Catching Accurate Profiles in
// Hardware" (Narayanasamy, Sherwood, Sair, Calder, Varghese — HPCA 2003):
// the Multi-Hash interval-based hardware profiling architecture, its
// single-hash ancestor, the stratified-sampling baseline, and the
// workload/instrumentation substrates needed to evaluate them.
//
// The profiler finds the frequently occurring events ("candidate tuples")
// of each fixed-length interval of a profiling-event stream, entirely in
// simulated hardware: tagless hash tables of saturating counters filter
// the stream, and a small associative accumulator table counts the
// candidates exactly.
//
// Quick start:
//
//	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
//	p, err := hwprof.New(cfg)
//	if err != nil { ... }
//	for _, t := range tuples {
//	    p.Observe(t)
//	}
//	profile := p.EndInterval() // map[Tuple]count for the interval
//
// For throughput, drive a stream through the unified entry point —
//
//	n, err := hwprof.Profile(ctx, src,
//	    hwprof.WithConfig(cfg), hwprof.WithShards(4), hwprof.OnInterval(fn))
//
// which builds a sharded concurrent engine and preserves exact interval
// semantics. Connect opens a session with a profiled daemon the same way,
// and Subscribe attaches to an epoch publisher (a publishing daemon or an
// aggd fleet aggregator) for merged fleet profiles.
//
// See the examples/ directory for complete programs, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
package hwprof

import (
	"context"
	"fmt"
	"io"

	"hwprof/internal/adaptive"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/hwmodel"
	"hwprof/internal/metrics"
	"hwprof/internal/shard"
	"hwprof/internal/synth"
	"hwprof/internal/trace"
	"hwprof/internal/vm"
	"hwprof/internal/vm/progs"
)

// Tuple uniquely names one profiling event: a pair such as
// <loadPC, value> or <branchPC, targetPC>.
type Tuple = event.Tuple

// Kind labels what a tuple's two halves mean.
type Kind = event.Kind

// Tuple kinds.
const (
	KindValue   = event.KindValue
	KindEdge    = event.KindEdge
	KindGeneric = event.KindGeneric
)

// Source is a stream of profiling events. A stream ends either cleanly or
// with a failure; Err distinguishes the two, and every driver in this
// package checks it when a stream ends.
type Source = event.Source

// Nexter is the minimal error-free stream surface: Next alone, no Err.
// Lift one into a Source with FromNexter.
type Nexter = event.Nexter

// FromNexter adapts an error-free event producer into a Source whose Err
// is permanently nil. Producers that already satisfy Source are returned
// unchanged.
func FromNexter(n Nexter) Source { return event.FromNexter(n) }

// BatchSource is the bulk counterpart of Source: NextBatch fills a slice
// with consecutive tuples and returns how many were written (0 means the
// stream is exhausted).
type BatchSource = event.BatchSource

// Batched returns a BatchSource view of src: the source itself when it
// already implements BatchSource, an adapter that loops Next otherwise.
func Batched(src Source) BatchSource { return event.Batched(src) }

// NewSliceSource returns a Source/BatchSource that yields the given tuples
// in order. The slice is not copied.
func NewSliceSource(tuples []Tuple) *event.SliceSource {
	return event.NewSliceSource(tuples)
}

// Config describes a profiler configuration; see the field documentation
// in the core package and the presets below.
type Config = core.Config

// Profiler is the Multi-Hash profiling architecture (the single-hash
// architecture when Config.NumTables == 1).
type Profiler = core.MultiHash

// StreamProfiler is the interface every profiler in this module satisfies:
// per-event observation plus interval snapshots. *Profiler,
// *ShardedProfiler and *Perfect all implement it (and the batch fast path
// of core.BatchProfiler besides).
type StreamProfiler = core.Profiler

// ShardedProfiler is the sharded concurrent engine: N MultiHash shards fed
// by per-shard goroutines behind the same Observe / ObserveBatch /
// EndInterval surface as Profiler. See internal/shard for the equivalence
// argument.
//
// Shut it down with Close (graceful: queued batches drain first) or Drain
// (same, but the unfinished interval's profile is returned). A panic in a
// shard worker is contained and surfaced through Err rather than crashing
// the process, and use after Close records ErrClosed instead of
// panicking.
type ShardedProfiler = shard.Profiler

// ErrClosed is reported (via ShardedProfiler.Err or Drain) when a sharded
// engine is used after Close.
var ErrClosed = shard.ErrClosed

// ErrTraceTruncated matches (via errors.Is) trace-reader failures caused
// by a stream that ends before its format allows — a cut-off file or
// interrupted write.
var ErrTraceTruncated = trace.ErrTruncated

// ErrTraceCorrupt matches (via errors.Is) trace-reader failures caused by
// inconsistent bytes: checksum mismatches, record-count mismatches, or
// undecodable framing.
var ErrTraceCorrupt = trace.ErrCorrupt

// ShardedConfig describes a sharded engine: the aggregate profiler
// configuration plus shard count and batching knobs.
type ShardedConfig = shard.Config

// Perfect is the oracle profiler used for error evaluation.
type Perfect = core.Perfect

// IntervalError is the per-interval error breakdown of the paper's §5.5
// methodology.
type IntervalError = metrics.Interval

// ErrorSummary aggregates interval errors over a run.
type ErrorSummary = metrics.Summary

// New builds a profiler from cfg.
func New(cfg Config) (*Profiler, error) { return core.NewMultiHash(cfg) }

// NewSharded builds a sharded concurrent engine that subdivides cfg's
// storage across the given number of shards (cfg.TotalEntries must divide
// evenly). The result profiles concurrently but reports intervals exactly
// like a sequential ensemble of the split configurations; Close it when
// done.
func NewSharded(cfg Config, shards int) (*ShardedProfiler, error) {
	return shard.New(shard.Config{Core: cfg, NumShards: shards})
}

// NewShardedFrom builds a sharded engine with explicit batching knobs.
func NewShardedFrom(cfg ShardedConfig) (*ShardedProfiler, error) {
	return shard.New(cfg)
}

// NewPerfect returns an oracle profiler.
func NewPerfect() *Perfect { return core.NewPerfect() }

// ShortIntervalConfig is the paper's 10,000-event / 1%-threshold regime.
func ShortIntervalConfig() Config { return core.ShortIntervalConfig() }

// LongIntervalConfig is the paper's 1,000,000-event / 0.1%-threshold
// regime.
func LongIntervalConfig() Config { return core.LongIntervalConfig() }

// BestSingleHash configures base as the paper's best single-hash profiler
// (resetting + retaining).
func BestSingleHash(base Config) Config { return core.BestSingleHash(base) }

// BestMultiHash configures base as the paper's best multi-hash profiler
// (4 tables, conservative update, no resetting, retaining).
func BestMultiHash(base Config) Config { return core.BestMultiHash(base) }

// IntervalFunc receives, for each completed interval, the interval's index
// (from 0), the perfect profile (nil when the oracle is disabled) and the
// hardware profile. The maps are owned by the callee and remain valid
// after the callback returns.
type IntervalFunc = core.IntervalFunc

// Profile is the unified local entry point: it feeds src through a
// profiling engine on the batched fast path, invoking the OnInterval
// callback at each boundary, and returns the number of complete intervals
// processed. Cancellation or deadline expiry on ctx stops the run between
// batches and returns ctx.Err() alongside the intervals completed.
//
// By default Profile builds its own engine — BestMultiHash over the
// paper's short-interval regime, or the configuration given WithConfig,
// sharded per WithShards — and shuts it down gracefully before returning
// (queued batches drain first). With WithEngine it runs the caller's
// engine instead — any StreamProfiler — and leaves it open, so the caller
// can Drain the partial interval or keep using it.
//
// The returned error reflects the stream and the engine, not just the
// configuration: a source that fails mid-stream (src.Err() != nil, e.g. a
// truncated trace) and a sharded engine that fails terminally (a contained
// worker panic) both surface here together with the count of intervals
// completed before the failure.
func Profile(ctx context.Context, src Source, opts ...Option) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	if o.eng != nil {
		return core.RunBatchedContext(ctx, src, o.eng, o.run, o.onInterval)
	}
	cfg := BestMultiHash(ShortIntervalConfig())
	if o.cfg != nil {
		cfg = *o.cfg
	}
	rc := o.run
	if rc.IntervalLength == 0 {
		rc.IntervalLength = cfg.IntervalLength
	}
	shards := o.shards
	if shards == 0 {
		shards = 1
	}
	sp, err := shard.New(shard.Config{Core: cfg, NumShards: shards, BatchSize: rc.BatchSize})
	if err != nil {
		return 0, err
	}
	n, err := core.RunBatchedContext(ctx, src, sp, rc, o.onInterval)
	if _, derr := sp.Drain(); err == nil && derr != nil {
		err = derr
	}
	return n, err
}

// EvalInterval computes the paper's error breakdown for one interval.
func EvalInterval(perfect, hardware map[Tuple]uint64, thresholdCount uint64) IntervalError {
	return metrics.EvalInterval(perfect, hardware, thresholdCount)
}

// Workloads returns the names of the built-in synthetic benchmark analogs
// (burg, deltablue, gcc, go, li, m88ksim, sis, vortex).
func Workloads() []string { return synth.Benchmarks() }

// NewWorkload returns an unbounded deterministic event stream with the
// statistical structure of the named benchmark analog.
func NewWorkload(name string, kind Kind, seed uint64) (Source, error) {
	return synth.NewBenchmark(name, kind, seed)
}

// Limit bounds a source to at most n events.
func Limit(src Source, n uint64) Source { return event.Limit(src, n) }

// Combine names an event of more than two variables as a Tuple (§3's
// multi-variable extension); two-variable calls keep their literal names.
func Combine(vars ...uint64) Tuple { return event.Combine(vars...) }

// Interleave merges sources by round-robin with a fixed per-turn quantum,
// modeling a multiprogrammed machine: the profiler is OS-independent and
// simply profiles the merged stream.
func Interleave(quantum uint64, sources ...Source) (Source, error) {
	return synth.Interleave(quantum, sources...)
}

// Programs returns the names of the built-in VM programs whose
// instrumented execution can drive the profiler with genuinely
// program-generated streams.
func Programs() []string {
	all := progs.All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return names
}

// NewProgramSource assembles and instruments the named VM program,
// returning an event stream of the given kind. With loop set the program
// restarts on halt, yielding an unbounded stream.
func NewProgramSource(name string, kind Kind, loop bool) (Source, error) {
	p, err := progs.ByName(name)
	if err != nil {
		return nil, err
	}
	m, err := p.NewMachine()
	if err != nil {
		return nil, err
	}
	src, err := vm.NewEventSource(m, kind)
	if err != nil {
		return nil, err
	}
	src.Loop = loop
	return src, nil
}

// WriteTrace streams src into w in the repository's binary trace format,
// returning the number of tuples written. max bounds the tuple count;
// max == 0 means no limit, writing until src is exhausted — beware that
// many of this module's sources (workload generators, looped programs) are
// unbounded, so an unlimited WriteTrace over them never returns.
func WriteTrace(w io.Writer, kind Kind, src Source, max uint64) (uint64, error) {
	tw, err := trace.NewWriter(w, kind)
	if err != nil {
		return 0, err
	}
	for max == 0 || tw.Count() < max {
		tp, ok := src.Next()
		if !ok {
			// A failed source must not leave behind a trace that reads back
			// as complete: report the failure instead of sealing the file.
			if err := src.Err(); err != nil {
				return tw.Count(), fmt.Errorf("hwprof: source failed after %d events: %w", tw.Count(), err)
			}
			break
		}
		if err := tw.Write(tp); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Close()
}

// OpenTrace wraps a binary trace stream as a Source. The returned reader
// also exposes the trace's tuple kind. When the stream ends, the reader's
// Err method distinguishes a cleanly finished trace (nil) from truncation
// or corruption (ErrTraceTruncated / ErrTraceCorrupt); Profile checks it
// automatically and returns the failure.
func OpenTrace(r io.Reader) (*trace.Reader, error) { return trace.NewReader(r) }

// AdaptiveConfig parameterizes the adaptive interval-length extension
// (§5.6.1); see the adaptive package for field documentation.
type AdaptiveConfig = adaptive.Config

// AdaptiveProfiler wraps the multi-hash profiler with a controller that
// adapts the interval length to the workload's phase behaviour.
type AdaptiveProfiler = adaptive.Profiler

// AdaptiveBoundary describes one completed adaptive interval.
type AdaptiveBoundary = adaptive.Boundary

// NewAdaptive builds an adaptive profiler.
func NewAdaptive(cfg AdaptiveConfig) (*AdaptiveProfiler, error) {
	return adaptive.New(cfg)
}

// StorageBytes returns the modeled hardware storage (hash tables plus
// accumulator) of a configuration, as accounted in the paper's §7.
func StorageBytes(cfg Config) (int, error) {
	a, err := hwmodel.Of(cfg)
	if err != nil {
		return 0, err
	}
	return a.Total(), nil
}
