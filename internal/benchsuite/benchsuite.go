// Package benchsuite defines the repository's fixed-seed hot-path
// benchmark cases: the ns/event and allocs/op measurements that make up
// the perf trajectory recorded in the BENCH_*.json files.
//
// The cases live in a normal package (rather than only in _test files) so
// that cmd/benchrun can execute them programmatically with
// testing.Benchmark and emit machine-readable results, while the usual
// `go test -bench` path runs the same cases through a thin wrapper. Every
// case draws its workload from a fixed seed, so two runs on the same
// machine measure the same event stream — before/after comparisons are
// apples to apples.
package benchsuite

import (
	"testing"

	"hwprof/internal/accum"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/hashfn"
	"hwprof/internal/xrand"
)

// Case is one named benchmark. Cases that process events report an
// "ns/event" metric; component micro-cases are plain ns/op.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// workloadSeed fixes the event stream of every case.
const workloadSeed = 0xC0FFEE

// streamLen is the length of the canned tuple stream (power of two so the
// benchmark loop can wrap with a mask).
const streamLen = 1 << 16

// Tuples returns the canned benchmark stream: a skewed mix where ~90% of
// events come from a 256-tuple hot set (triangularly skewed, so a handful
// of tuples dominate — the regime the accumulator exists for) and the rest
// are near-unique noise. Deterministic in seed.
func Tuples(n int, seed uint64) []event.Tuple {
	r := xrand.New(seed)
	hot := make([]event.Tuple, 256)
	for i := range hot {
		hot[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	out := make([]event.Tuple, n)
	for i := range out {
		if r.Uint64n(10) != 0 {
			// Min of two uniforms skews toward low indexes: index 0 is
			// ~512x more likely than index 255.
			a, b := r.Uint64n(256), r.Uint64n(256)
			if b < a {
				a = b
			}
			out[i] = hot[a]
			continue
		}
		out[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	return out
}

// recycler matches profilers that can take an interval snapshot back for
// reuse. Asserted dynamically so the suite also runs (without recycling)
// against builds that predate the reuse API.
type recycler interface {
	Recycle(m map[event.Tuple]uint64)
}

// endInterval closes the profiler's interval and hands the snapshot back
// when the profiler supports reuse.
func endInterval(p core.Profiler) {
	snap := p.EndInterval()
	if r, ok := p.(recycler); ok {
		r.Recycle(snap)
	}
}

// observeBatchCase measures the batched hot loop of cfg, interval
// boundaries included: per op one DefaultBatchSize batch is observed, and
// EndInterval runs (inside the timer) whenever the interval fills. The
// reported allocs/op therefore covers the whole steady-state cycle, not
// just the observation path.
func observeBatchCase(cfg core.Config) func(b *testing.B) {
	return observeBatchLenCase(cfg, event.DefaultBatchSize)
}

// observeBatchLenCase is observeBatchCase at an explicit batch length
// (a power of two dividing streamLen, so the stream wraps cleanly). The
// batch-length sweep cases use it to locate the staged pipeline's
// break-even point: short batches amortize the stage pass poorly, long
// ones keep the lookahead window full.
func observeBatchLenCase(cfg core.Config, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		p, err := core.NewMultiHash(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuples := Tuples(streamLen, workloadSeed)
		// Warm one interval so map growth and table warm-up are not
		// charged to the measured steady state.
		var n uint64
		for n < cfg.IntervalLength {
			p.ObserveBatch(tuples[:batch])
			n += uint64(batch)
		}
		endInterval(p)
		n = 0
		events := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i * batch) & (streamLen - 1)
			p.ObserveBatch(tuples[off : off+batch])
			events += batch
			n += uint64(batch)
			if n >= cfg.IntervalLength {
				endInterval(p)
				n = 0
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// observePerEventCase measures the unbatched Observe path: one event per
// op, interval boundaries included.
func observePerEventCase(cfg core.Config) func(b *testing.B) {
	return func(b *testing.B) {
		p, err := core.NewMultiHash(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuples := Tuples(streamLen, workloadSeed)
		var n uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Observe(tuples[i&(streamLen-1)])
			n++
			if n >= cfg.IntervalLength {
				endInterval(p)
				n = 0
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	}
}

// accumIncCase measures the accumulator's resident-tuple Inc lookup — the
// very first operation of every observed event.
func accumIncCase() func(b *testing.B) {
	return func(b *testing.B) {
		tbl, err := accum.New(100, 1<<40)
		if err != nil {
			b.Fatal(err)
		}
		resident := Tuples(64, workloadSeed)[:64]
		for _, tp := range resident {
			tbl.Insert(tp, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Inc(resident[i&63])
		}
	}
}

// accumInsertCase measures promotion pressure: inserts into a table kept
// full of replaceable entries, so every op exercises victim selection and
// eviction.
func accumInsertCase() func(b *testing.B) {
	return func(b *testing.B) {
		const capacity = 100
		tbl, err := accum.New(capacity, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// initial < threshold keeps every entry replaceable, so the
			// table stays full and each insert past warm-up evicts.
			tbl.Insert(event.Tuple{A: uint64(i), B: uint64(i) * 3}, uint64(i%999)+1)
		}
	}
}

// hashIndexCase measures one hardwired hash evaluation.
func hashIndexCase() func(b *testing.B) {
	return func(b *testing.B) {
		f, err := hashfn.New(workloadSeed, 9)
		if err != nil {
			b.Fatal(err)
		}
		tuples := Tuples(streamLen, workloadSeed)
		var sink uint32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink ^= f.Index(tuples[i&(streamLen-1)])
		}
		_ = sink
	}
}

// Suite returns the benchmark cases in reporting order.
//
// The observe-batch/multi case is the headline number: the paper's best
// multi-hash configuration (4×512 C1 R0 P1) at the short-interval regime,
// driven through ObserveBatch exactly as RunBatched drives it. The
// multi-lenN cases sweep the batch length across the staged pipeline's
// break-even point.
func Suite() []Case {
	short := core.ShortIntervalConfig()
	long := core.LongIntervalConfig()
	return []Case{
		{Name: "observe-batch/multi", F: observeBatchCase(core.BestMultiHash(short))},
		{Name: "observe-batch/single", F: observeBatchCase(core.BestSingleHash(short))},
		{Name: "observe-batch/multi-long", F: observeBatchCase(core.BestMultiHash(long))},
		{Name: "observe-batch/multi-len8", F: observeBatchLenCase(core.BestMultiHash(short), 8)},
		{Name: "observe-batch/multi-len64", F: observeBatchLenCase(core.BestMultiHash(short), 64)},
		{Name: "observe-batch/multi-len512", F: observeBatchLenCase(core.BestMultiHash(short), 512)},
		{Name: "observe-batch/multi-len4096", F: observeBatchLenCase(core.BestMultiHash(short), 4096)},
		{Name: "observe/per-event", F: observePerEventCase(core.BestMultiHash(short))},
		{Name: "accum/inc", F: accumIncCase()},
		{Name: "accum/insert-evict", F: accumInsertCase()},
		{Name: "hashfn/index", F: hashIndexCase()},
	}
}
