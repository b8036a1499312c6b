// Edge profiling for trace formation: profile the branch edges of the
// VM's bytecode interpreter and reconstruct the hot path through its
// dispatch loop — the input a trace-cache or hot-spot-relayout
// optimization needs (paper §2, "Trace Formation").
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"hwprof"
)

func main() {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	profiler, err := hwprof.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Every control transfer in the interpreter emits a
	// <branchPC, targetPC> tuple.
	src, err := hwprof.NewProgramSource("interp", hwprof.KindEdge, true)
	if err != nil {
		log.Fatal(err)
	}

	edges := map[hwprof.Tuple]uint64{}
	_, err = hwprof.Profile(context.Background(), hwprof.Limit(src, cfg.IntervalLength*5),
		hwprof.WithEngine(profiler), hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, hardware map[hwprof.Tuple]uint64) {
			for t, n := range hardware {
				if n >= cfg.ThresholdCount() {
					edges[t] += n
				}
			}
		}))
	if err != nil {
		log.Fatal(err)
	}

	type edge struct {
		t hwprof.Tuple
		n uint64
	}
	var hot []edge
	for t, n := range edges {
		hot = append(hot, edge{t, n})
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].n > hot[j].n })

	fmt.Println("hot branch edges (candidates for trace formation):")
	for i, e := range hot {
		if i >= 12 {
			break
		}
		fmt.Printf("  %#x -> %#x  ×%d\n", e.t.A, e.t.B, e.n)
	}

	// Greedily chain edges from the hottest one: the classic next-edge
	// heuristic for laying out a trace.
	byFrom := map[uint64]edge{}
	for _, e := range hot {
		if cur, ok := byFrom[e.t.A]; !ok || e.n > cur.n {
			byFrom[e.t.A] = e
		}
	}
	if len(hot) > 0 {
		fmt.Println("\ngreedy hot path from the hottest edge:")
		cur := hot[0]
		seen := map[uint64]bool{}
		for i := 0; i < 8; i++ {
			fmt.Printf("  %#x -> %#x\n", cur.t.A, cur.t.B)
			seen[cur.t.A] = true
			next, ok := byFrom[cur.t.B]
			if !ok || seen[next.t.A] {
				break
			}
			cur = next
		}
	}
}
