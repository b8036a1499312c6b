// Multiprogrammed profiling — the paper's OS-independence claim in
// action. Two "processes" (the li and m88ksim workload analogs) share the
// machine, context-switching every 1,000 events. The profiler knows
// nothing about processes, address spaces or the scheduler: it profiles
// the merged stream and still reports each interval's heavy hitters with
// near-zero error, because the accumulator tracks tuples, not software
// contexts.
package main

import (
	"context"
	"fmt"
	"log"

	"hwprof"
)

func main() {
	procA, err := hwprof.NewWorkload("li", hwprof.KindValue, 1)
	if err != nil {
		log.Fatal(err)
	}
	procB, err := hwprof.NewWorkload("m88ksim", hwprof.KindValue, 2)
	if err != nil {
		log.Fatal(err)
	}
	merged, err := hwprof.Interleave(1_000, procA, procB)
	if err != nil {
		log.Fatal(err)
	}

	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	profiler, err := hwprof.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("profiling two context-switching processes (quantum 1000 events):")
	_, err = hwprof.Profile(context.Background(), hwprof.Limit(merged, 4*cfg.IntervalLength),
		hwprof.WithEngine(profiler), hwprof.WithIntervalLength(cfg.IntervalLength),
		hwprof.OnInterval(func(i int, perfect, hardware map[hwprof.Tuple]uint64) {
			iv := hwprof.EvalInterval(perfect, hardware, cfg.ThresholdCount())
			cands := 0
			for _, n := range hardware {
				if n >= cfg.ThresholdCount() {
					cands++
				}
			}
			fmt.Printf("  interval %d: %2d candidates across both processes, error %.2f%%\n",
				i, cands, iv.Total*100)
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nno OS hooks, no process IDs, no software aggregation — the")
	fmt.Println("hardware just profiles whatever instruction stream executes.")
}
