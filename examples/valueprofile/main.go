// Value profiling of a real (interpreted) program: run the VM's string-
// hashing benchmark under the multi-hash profiler and report which load
// instructions are dominated by which values — the information a
// value-specialization or frequent-value-cache optimization needs (paper
// §2, "Value based optimizations").
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"hwprof"
)

func main() {
	// Short intervals so the profile tracks the program closely.
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	cfg.IntervalLength = 5_000
	profiler, err := hwprof.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Each ld instruction emits a <loadPC, value> tuple; loop the program
	// to cover several intervals.
	src, err := hwprof.NewProgramSource("strhash", hwprof.KindValue, true)
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate the per-interval hardware profiles: for every load PC,
	// how much of its profiled traffic is one dominant value?
	perPC := map[uint64]map[uint64]uint64{}
	intervals, err := hwprof.Profile(context.Background(), hwprof.Limit(src, cfg.IntervalLength*10),
		hwprof.WithEngine(profiler), hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, hardware map[hwprof.Tuple]uint64) {
			for t, n := range hardware {
				if n < cfg.ThresholdCount() {
					continue
				}
				if perPC[t.A] == nil {
					perPC[t.A] = map[uint64]uint64{}
				}
				perPC[t.A][t.B] += n
			}
		}))
	if err != nil {
		log.Fatal(err)
	}

	pcs := make([]uint64, 0, len(perPC))
	for pc := range perPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	fmt.Printf("value-specialization candidates over %d intervals:\n", intervals)
	for _, pc := range pcs {
		var total, best uint64
		var bestVal uint64
		for v, n := range perPC[pc] {
			total += n
			if n > best {
				best, bestVal = n, v
			}
		}
		fmt.Printf("  load at %#x: top value %6d covers %3.0f%% of %d profiled loads\n",
			pc, int64(bestVal), 100*float64(best)/float64(total), total)
	}
	fmt.Println("\nloads dominated by one value are candidates for value")
	fmt.Println("specialization or frequent-value compression (Zhang et al.).")
}
