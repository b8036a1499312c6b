package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// checkGoroutines records the current goroutine count and registers a
// cleanup that fails the test if the count has not settled back to the
// baseline by the end — the goleak-style assertion every teardown path in
// this file runs under.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Allow the runtime a moment to retire exited goroutines.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(10 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("goroutines leaked: %d before, %d after", before, got)
		}
	})
}

// TestConcurrentProducersAndIntervals drives the full concurrent lifecycle
// the engine promises to support — several producer goroutines calling
// Observe/ObserveBatch while another goroutine cuts interval boundaries —
// and is meaningful chiefly under -race: every router, channel and pool
// interaction is exercised across goroutines.
//
// It runs at one shard (the inline path, driven on the producers' own
// goroutines) and at four (the routed worker path).
func TestConcurrentProducersAndIntervals(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testConcurrentProducersAndIntervals(t, shards)
		})
	}
}

func testConcurrentProducersAndIntervals(t *testing.T, shards int) {
	checkGoroutines(t)
	engine := newEngine(t, Config{Core: baseConfig(), NumShards: shards, BatchSize: 32, QueueDepth: 2})

	const producers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			batch := make([]event.Tuple, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					batch[i] = event.Tuple{A: uint64(r.Intn(32)), B: uint64(r.Intn(4))}
				}
				engine.ObserveBatch(batch)
				engine.Observe(event.Tuple{A: seed, B: 0xff})
			}
		}(uint64(p + 1))
	}

	// Concurrent interval boundaries: each must return a self-consistent
	// (possibly empty) snapshot without panicking or deadlocking. A tuple
	// may be reported with count 0 only as a P1-retained entry that did
	// not recur (DESIGN.md §5, snapshot contract): it must then have been
	// in the previous interval's profile at or above its shard's
	// threshold count.
	var prev map[event.Tuple]uint64
	endInterval := func(i int) {
		profile := engine.EndInterval()
		for tp, c := range profile {
			if c != 0 {
				continue
			}
			thresh := engine.Config().ShardConfig(engine.ShardOf(tp)).ThresholdCount()
			if was, ok := prev[tp]; !ok || was < thresh {
				t.Errorf("interval %d: tuple %v reported with zero count but not retained (previous count %d, present %v, threshold %d)",
					i, tp, was, ok, thresh)
			}
		}
		prev = profile
	}
	for i := 0; i < 25; i++ {
		endInterval(i)
		time.Sleep(time.Millisecond)
	}

	close(stop)
	wg.Wait()
	// Three quiet boundaries: the first closes whatever the producers left
	// behind, the second reports every retained entry at count 0, and the
	// third must report none of them again.
	for i := 25; i < 28; i++ {
		endInterval(i)
	}
	if len(prev) != 0 {
		t.Errorf("after two empty intervals the profile still holds %d entries", len(prev))
	}
}

// TestCloseLeaksNoGoroutines builds and tears down engines and checks the
// goroutine count settles back to the baseline.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	checkGoroutines(t)
	for i := 0; i < 10; i++ {
		engine, err := New(Config{Core: baseConfig(), NumShards: 8, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		engine.ObserveBatch(workload(t, 5_000))
		engine.EndInterval()
		engine.Close()
	}
}

// TestDrainLeaksNoGoroutines: the salvage path must release the shard
// goroutines exactly like Close, with the partial profile intact.
func TestDrainLeaksNoGoroutines(t *testing.T) {
	checkGoroutines(t)
	for i := 0; i < 10; i++ {
		engine, err := New(Config{Core: baseConfig(), NumShards: 8, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		engine.ObserveBatch(workload(t, 5_000))
		profile, err := engine.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if len(profile) == 0 {
			t.Fatal("Drain lost the partial interval")
		}
	}
}

// TestCancellationLeaksNoGoroutines: cancelling a batched run over the
// engine mid-interval must stop the driver promptly and leave nothing
// behind once the engine is drained.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	checkGoroutines(t)
	engine, err := New(Config{Core: baseConfig(), NumShards: 4, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	src := event.FuncSource(func() (event.Tuple, bool) {
		events++
		if events == int(baseConfig().IntervalLength)/2 {
			cancel() // mid-interval: the driver must notice at the next batch
		}
		return event.Tuple{A: uint64(events % 64), B: 1}, true
	})
	_, err = core.RunBatchedContext(ctx, src, engine,
		core.RunConfig{IntervalLength: baseConfig().IntervalLength}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := engine.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringProduction: Close must drain gracefully even when
// producers race it; racing producers either land their events or no-op
// with ErrClosed recorded, and nothing panics or deadlocks.
func TestCloseDuringProduction(t *testing.T) {
	checkGoroutines(t)
	engine, err := New(Config{Core: baseConfig(), NumShards: 4, BatchSize: 16, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < 10_000; i++ {
				engine.Observe(event.Tuple{A: r.Uint64() % 64, B: 1})
			}
		}(uint64(p + 1))
	}
	time.Sleep(time.Millisecond)
	engine.Close()
	wg.Wait()
	// The only acceptable post-race error is the recorded use-after-close.
	if err := engine.Err(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("unexpected engine error: %v", err)
	}
}

// TestOneShardStartsNoGoroutine: a one-shard engine runs inline, so
// building, using and closing it never changes the goroutine count.
func TestOneShardStartsNoGoroutine(t *testing.T) {
	checkGoroutines(t)
	before := runtime.NumGoroutine()
	engine, err := New(Config{Core: baseConfig(), NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	engine.ObserveBatch(workload(t, 5_000))
	// Goroutines left over from earlier tests may still be exiting, so
	// only a rise counts.
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("one-shard engine runs %d goroutines, want none", got-before)
	}
	if len(engine.EndInterval()) == 0 {
		t.Fatal("empty profile")
	}
	engine.Close()
}
