// Command profile runs a profiler configuration over a tuple stream (a
// trace file, a synthetic workload, or an instrumented VM program),
// reports the per-interval candidates it catches, and — when the stream is
// replayable — the error against a perfect profiler.
//
// Usage:
//
//	profile -workload gcc -intervals 10
//	profile -trace gcc.trace -tables 4 -conservative
//	profile -program interp -kind edge -interval 10000 -threshold 1
//	profile -workload gcc -shards 4 -exact=false -reuse-profiles   # concurrent, throughput mode
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"hwprof"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "read tuples from this trace file")
		workload  = flag.String("workload", "", "generate tuples from this synthetic benchmark analog")
		program   = flag.String("program", "", "generate tuples from this VM program (looped)")
		kindName  = flag.String("kind", "value", "tuple kind for -workload/-program: value or edge")
		seed      = flag.Uint64("seed", 1, "workload seed")

		interval  = flag.Uint64("interval", 10_000, "profile interval length in events")
		threshold = flag.Float64("threshold", 1, "candidate threshold in percent of interval length")
		entries   = flag.Int("entries", 2048, "total hash-table counters")
		tables    = flag.Int("tables", 4, "number of hash tables")
		conserv   = flag.Bool("conservative", true, "use conservative update (C1)")
		reset     = flag.Bool("reset", false, "reset counters on promotion (R1)")
		retain    = flag.Bool("retain", true, "retain candidates across intervals (P1)")

		intervals = flag.Int("intervals", 5, "number of profile intervals to run")
		top       = flag.Int("top", 10, "candidates to print per interval")

		shards = flag.Int("shards", 1, "profile concurrently over this many shards (storage is split across them)")
		batch  = flag.Int("batch", 0, "tuple batch size of the streaming driver (default 512)")
		exact  = flag.Bool("exact", true, "run the perfect profiler alongside and report per-interval error")
		reuse  = flag.Bool("reuse-profiles", false, "recycle interval-profile maps (allocation-free boundaries; maps are invalid after each interval is printed)")
	)
	flag.Parse()
	if err := run(*traceFile, *workload, *program, *kindName, *seed, *interval,
		*threshold, *entries, *tables, *conserv, *reset, *retain, *intervals, *top,
		*shards, *batch, *exact, *reuse); err != nil {
		// Trace faults get a classified message: whatever profiles were
		// reported before the fault are real, but the stream they came from
		// is damaged and the run must fail loudly rather than look complete.
		switch {
		case errors.Is(err, hwprof.ErrTraceTruncated):
			fmt.Fprintf(os.Stderr, "profile: input trace is truncated (cut-off file or interrupted write): %v\n", err)
		case errors.Is(err, hwprof.ErrTraceCorrupt):
			fmt.Fprintf(os.Stderr, "profile: input trace is corrupt (checksum or framing mismatch): %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, "profile:", err)
		}
		os.Exit(1)
	}
}

func run(traceFile, workload, program, kindName string, seed, interval uint64,
	threshold float64, entries, tables int, conserv, reset, retain bool,
	intervals, top, shards, batch int, exact, reuse bool) error {

	var kind hwprof.Kind
	switch kindName {
	case "value":
		kind = hwprof.KindValue
	case "edge":
		kind = hwprof.KindEdge
	default:
		return fmt.Errorf("unknown kind %q", kindName)
	}

	var src hwprof.Source
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := hwprof.OpenTrace(f)
		if err != nil {
			return err
		}
		src = r
	case workload != "":
		g, err := hwprof.NewWorkload(workload, kind, seed)
		if err != nil {
			return err
		}
		src = g
	case program != "":
		p, err := hwprof.NewProgramSource(program, kind, true)
		if err != nil {
			return err
		}
		src = p
	default:
		return fmt.Errorf("one of -trace, -workload or -program is required")
	}

	cfg := hwprof.Config{
		IntervalLength:     interval,
		ThresholdPercent:   threshold,
		TotalEntries:       entries,
		NumTables:          tables,
		CounterWidth:       24,
		ConservativeUpdate: conserv,
		ResetOnPromote:     reset,
		Retain:             retain,
		Seed:               seed + 7,
	}
	// Build the profiler: one MultiHash, or the sharded concurrent engine
	// with the same aggregate storage split across shards.
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", shards)
	}
	var p hwprof.StreamProfiler
	if shards > 1 {
		sp, err := hwprof.NewSharded(cfg, shards)
		if err != nil {
			return err
		}
		defer sp.Close()
		p = sp
	} else {
		mh, err := hwprof.New(cfg)
		if err != nil {
			return err
		}
		p = mh
	}
	bytes, err := hwprof.StorageBytes(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("configuration %v, %d shard(s), storage %d bytes, threshold count %d\n",
		cfg, shards, bytes, cfg.ThresholdCount())

	thresh := cfg.ThresholdCount()
	// -reuse-profiles is safe here because printTop finishes with each map
	// inside the callback; nothing retains an interval's profile after it.
	opts := []hwprof.Option{hwprof.WithEngine(p), hwprof.WithIntervalLength(interval), hwprof.WithBatchSize(batch)}
	if !exact {
		opts = append(opts, hwprof.WithoutOracle())
	}
	if reuse {
		opts = append(opts, hwprof.WithProfileReuse())
	}
	opts = append(opts, hwprof.OnInterval(func(i int, perfect, hardware map[hwprof.Tuple]uint64) {
		if perfect != nil {
			iv := hwprof.EvalInterval(perfect, hardware, thresh)
			fmt.Printf("\ninterval %d: error %.2f%% (FP %.2f / FN %.2f / NP %.2f / NN %.2f), %d perfect candidates\n",
				i, iv.Total*100, iv.FalsePos*100, iv.FalseNeg*100,
				iv.NeutralPos*100, iv.NeutralNeg*100, iv.PerfectCandidates)
		} else {
			fmt.Printf("\ninterval %d:\n", i)
		}
		printTop(hardware, thresh, top)
	}))
	n, err := hwprof.Profile(context.Background(), hwprof.Limit(src, interval*uint64(intervals)), opts...)
	if err != nil {
		return err
	}
	if n < intervals {
		fmt.Printf("\nstream ended after %d of %d intervals\n", n, intervals)
	}
	return nil
}

// printTop lists the interval's hottest captured candidates.
func printTop(hardware map[hwprof.Tuple]uint64, thresh uint64, top int) {
	type entry struct {
		t hwprof.Tuple
		c uint64
	}
	var cands []entry
	for t, c := range hardware {
		if c >= thresh {
			cands = append(cands, entry{t, c})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].c != cands[j].c {
			return cands[i].c > cands[j].c
		}
		if cands[i].t.A != cands[j].t.A {
			return cands[i].t.A < cands[j].t.A
		}
		return cands[i].t.B < cands[j].t.B
	})
	if len(cands) > top {
		cands = cands[:top]
	}
	for _, e := range cands {
		fmt.Printf("  <%#x, %#x>  ×%d\n", e.t.A, e.t.B, e.c)
	}
}
