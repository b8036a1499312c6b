// Benchmarks regenerating every results figure of the paper (see
// DESIGN.md's experiment index) plus ablations of the design choices the
// paper calls out. Each figure bench runs its harness at a reduced
// interval budget (the cmd/experiments tool runs the full defaults) and
// reports the headline error metrics alongside the usual time/op.
package hwprof_test

import (
	"context"
	"testing"

	"hwprof"
	"hwprof/internal/expt"
)

// benchOpts is the reduced budget used by the figure benches.
func benchOpts(benchmarks ...string) expt.Options {
	return expt.Options{
		Seed:           1,
		ShortIntervals: 3,
		LongIntervals:  1,
		Benchmarks:     benchmarks,
	}
}

func BenchmarkFig04DistinctTuples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig4(benchOpts("gcc", "li", "m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05Candidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig5(benchOpts("gcc", "li", "m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06Variation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig6(benchOpts("deltablue", "m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07SingleHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig7(benchOpts("gcc", "go")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09Analytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10MultiHashSweep10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig10(benchOpts("gcc", "go")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11MultiHashSweep1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig11(benchOpts("gcc")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12BestMultiHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig12(benchOpts("gcc", "go")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13PerInterval(b *testing.B) {
	opts := benchOpts("gcc", "go")
	opts.LongIntervals = 2
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig13(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14EdgeProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig14(benchOpts("gcc", "go")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AreaTable(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptiveExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AdaptiveTable(benchOpts("m88ksim", "deltablue")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStratifiedBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.StratifiedCompare(benchOpts("gcc", "li")); err != nil {
			b.Fatal(err)
		}
	}
}

// meanError runs one configuration over a workload and returns the mean
// total error (fraction) across `intervals` intervals, skipping the
// cold-start interval like the figure harnesses do.
func meanError(b *testing.B, bench string, kind hwprof.Kind, cfg hwprof.Config, intervals int) float64 {
	b.Helper()
	w, err := hwprof.NewWorkload(bench, kind, 1)
	if err != nil {
		b.Fatal(err)
	}
	return meanErrorOn(b, w, cfg, intervals)
}

// meanErrorOn is meanError over an arbitrary source.
func meanErrorOn(b *testing.B, w hwprof.Source, cfg hwprof.Config, intervals int) float64 {
	b.Helper()
	p, err := hwprof.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	total := 0.0
	counted := 0
	n, err := hwprof.Profile(context.Background(), hwprof.Limit(w, cfg.IntervalLength*uint64(intervals+1)),
		hwprof.WithEngine(p), hwprof.WithIntervalLength(cfg.IntervalLength),
		hwprof.OnInterval(func(i int, perfect, hardware map[hwprof.Tuple]uint64) {
			if i == 0 {
				return
			}
			total += hwprof.EvalInterval(perfect, hardware, cfg.ThresholdCount()).Total
			counted++
		}))
	if err != nil {
		b.Fatal(err)
	}
	if n != intervals+1 || counted != intervals {
		b.Fatalf("ran %d intervals, counted %d", n, counted)
	}
	return total / float64(counted)
}

// BenchmarkAblationConservative measures conservative update on/off at the
// paper's best geometry (DESIGN.md §5).
func BenchmarkAblationConservative(b *testing.B) {
	base := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	base.Seed = 8
	for i := 0; i < b.N; i++ {
		on := base
		off := base
		off.ConservativeUpdate = false
		eOn := meanError(b, "gcc", hwprof.KindValue, on, 4)
		eOff := meanError(b, "gcc", hwprof.KindValue, off, 4)
		b.ReportMetric(eOn*100, "%err-C1")
		b.ReportMetric(eOff*100, "%err-C0")
	}
}

// BenchmarkAblationShielding measures the shielding optimization the paper
// asserts but does not plot (§5.2), under the high-pressure long regime
// where unshielded candidate traffic floods the hash tables.
func BenchmarkAblationShielding(b *testing.B) {
	base := hwprof.BestMultiHash(hwprof.LongIntervalConfig())
	base.Seed = 8
	for i := 0; i < b.N; i++ {
		off := base
		off.NoShield = true
		eOn := meanError(b, "gcc", hwprof.KindValue, base, 1)
		eOff := meanError(b, "gcc", hwprof.KindValue, off, 1)
		b.ReportMetric(eOn*100, "%err-shield")
		b.ReportMetric(eOff*100, "%err-noshield")
	}
}

// BenchmarkAblationRetaining measures retaining (§5.4.1) at the long
// regime: without it every candidate re-warms through the hash tables each
// interval, recreating the pressure retaining exists to remove.
func BenchmarkAblationRetaining(b *testing.B) {
	base := hwprof.BestMultiHash(hwprof.LongIntervalConfig())
	base.Seed = 8
	for i := 0; i < b.N; i++ {
		off := base
		off.Retain = false
		eOn := meanError(b, "gcc", hwprof.KindValue, base, 1)
		eOff := meanError(b, "gcc", hwprof.KindValue, off, 1)
		b.ReportMetric(eOn*100, "%err-P1")
		b.ReportMetric(eOff*100, "%err-P0")
	}
}

// BenchmarkAblationCounterWidth contrasts the paper's 3-byte saturating
// counters with hardware just wide enough for the threshold: 10-bit
// counters saturate at 1023, a whisker above the long regime's threshold
// count of 1000, so aliased counters pin at promotable values. Measured
// equal error (0 vs 0) is the expected finding: with saturation (never
// wrap-around), width beyond ~log2(threshold) buys nothing, so the paper's
// 3-byte counters are a conservative choice — 10-bit counters would shrink
// the 6 KB hash storage to 2.5 KB.
func BenchmarkAblationCounterWidth(b *testing.B) {
	base := hwprof.BestMultiHash(hwprof.LongIntervalConfig())
	base.Seed = 8
	for i := 0; i < b.N; i++ {
		narrow := base
		narrow.CounterWidth = 10
		e24 := meanError(b, "gcc", hwprof.KindValue, base, 1)
		e10 := meanError(b, "gcc", hwprof.KindValue, narrow, 1)
		b.ReportMetric(e24*100, "%err-24bit")
		b.ReportMetric(e10*100, "%err-10bit")
	}
}

// BenchmarkAblationHashQuality contrasts the paper's randomize/flip/
// xorfold hash family with structure-preserving shifted xors (§5.3). The
// input is a real program's edge stream — PCs in a narrow range — which is
// exactly the structured input the randomize tables exist to disperse.
func BenchmarkAblationHashQuality(b *testing.B) {
	// Single-hash architecture: with multiple tables, conservative update
	// masks even a pathological hash (the min counter stays clean as long
	// as one table disperses), so the hash's own quality shows cleanest
	// with one table.
	base := hwprof.ShortIntervalConfig()
	base.TotalEntries = 512
	base.Retain = true
	base.Seed = 8
	for i := 0; i < b.N; i++ {
		weak := base
		weak.WeakHash = true
		ePaper := meanErrorOn(b, hwprof.NewSliceSource(stridedTuples(base, 5)), base, 4)
		eWeak := meanErrorOn(b, hwprof.NewSliceSource(stridedTuples(weak, 5)), weak, 4)
		b.ReportMetric(ePaper*100, "%err-paperhash")
		b.ReportMetric(eWeak*100, "%err-weakhash")
	}
}

// stridedTuples builds a stream whose hot tuples are 8 nearby PCs and whose
// noise tuples are large-stride addresses — the structured inputs that
// collapse onto a handful of buckets under a shifted-xor hash but disperse
// under the paper's randomize tables.
func stridedTuples(cfg hwprof.Config, intervals int) []hwprof.Tuple {
	out := make([]hwprof.Tuple, cfg.IntervalLength*uint64(intervals))
	for i := range out {
		n := uint64(i + 1)
		if n%3 != 0 {
			out[i] = hwprof.Tuple{A: 0x400000 + (n%8)*4, B: n % 8}
			continue
		}
		k := n / 3
		out[i] = hwprof.Tuple{A: 0x800000 + (k<<15)*4, B: 0}
	}
	return out
}

// BenchmarkObserveThroughput measures the simulator's hot path: one event
// through the 4-table conservative-update architecture.
func BenchmarkObserveThroughput(b *testing.B) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	p, err := hwprof.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, _ := hwprof.NewWorkload("gcc", hwprof.KindValue, 1)
	tuples := make([]hwprof.Tuple, 1<<16)
	for i := range tuples {
		tuples[i], _ = w.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(tuples[i&(1<<16-1)])
	}
}

func BenchmarkVMValidation(b *testing.B) {
	opts := benchOpts()
	opts.ShortIntervals = 2
	for i := 0; i < b.N; i++ {
		if _, err := expt.VMTable(opts); err != nil {
			b.Fatal(err)
		}
	}
}
