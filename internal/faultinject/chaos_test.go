// Chaos tests: drive the full pipeline — facade, drivers, sharded engine,
// trace layer — through injected faults and assert it degrades gracefully.
// Every fault must surface as a returned error (never a crash), every
// teardown path must leak zero goroutines, and nothing may deadlock. The
// CI race job runs this file under -race, which is where the containment
// guarantees are really proven.
package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/faultinject"
)

// chaosConfig is the paper's best multi-hash profiler in the 10K regime —
// small enough that chaos tests stay fast, real enough to exercise every
// engine path.
func chaosConfig() hwprof.Config {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	cfg.Seed = 42
	return cfg
}

// stream returns a bounded deterministic workload stream.
func stream(t *testing.T, n uint64) hwprof.Source {
	t.Helper()
	g, err := hwprof.NewWorkload("gcc", hwprof.KindValue, 7)
	if err != nil {
		t.Fatal(err)
	}
	return hwprof.Limit(g, n)
}

// checkGoroutines fails the test if the goroutine count does not settle
// back to its starting baseline by the end of the test.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
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

// TestChaosSourceErrorSurfaces: a mid-stream source failure comes back as
// the returned error — matchable to the injected fault — with the
// intervals completed beforehand still delivered and the engine torn down
// cleanly.
func TestChaosSourceErrorSurfaces(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	src := &faultinject.FailingSource{
		Inner: stream(t, 10*cfg.IntervalLength),
		After: 2*cfg.IntervalLength + cfg.IntervalLength/3, // fails inside interval 2
	}
	calls := 0
	n, err := hwprof.Profile(context.Background(), src,
		hwprof.WithConfig(cfg), hwprof.WithShards(4), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(int, map[hwprof.Tuple]uint64, map[hwprof.Tuple]uint64) { calls++ }))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if n != 2 || calls != 2 {
		t.Fatalf("intervals = %d, calls = %d; want the 2 intervals before the fault", n, calls)
	}
}

// TestChaosWorkerPanicSurfaces: a panic inside a shard worker goroutine is
// contained, ends the run with an error naming the panic, and leaves no
// goroutines behind.
func TestChaosWorkerPanicSurfaces(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	sp, err := hwprof.NewShardedFrom(hwprof.ShardedConfig{
		Core:       cfg,
		NumShards:  4,
		WorkerHook: faultinject.PanicWorkerHook(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	n, err := hwprof.Profile(context.Background(), stream(t, 20*cfg.IntervalLength), hwprof.WithEngine(sp),
		hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle())
	if err == nil || !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("err = %v, want a contained worker panic", err)
	}
	if !strings.Contains(sp.Err().Error(), "worker panic") {
		t.Fatalf("engine Err = %v, want the contained panic", sp.Err())
	}
	// The run aborted early rather than streaming everything into a
	// degraded engine.
	if n >= 20 {
		t.Fatalf("driver ran all %d intervals despite the engine failure", n)
	}
}

// TestChaosWorkerPanicLateDetection: even when the panic lands too late
// for the per-batch engine check — after the last batch of the run — the
// graceful teardown must still report it.
func TestChaosWorkerPanicLateDetection(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	// The hook fires deep into the run, so some intervals complete first.
	src := stream(t, 5*cfg.IntervalLength)
	sp, err := hwprof.NewShardedFrom(hwprof.ShardedConfig{
		Core:       cfg,
		NumShards:  2,
		WorkerHook: faultinject.PanicWorkerHook(40),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = hwprof.Profile(context.Background(), src, hwprof.WithEngine(sp),
		hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle())
	if err == nil {
		// The panic may land after the last batch; Drain must still report it.
		_, err = sp.Drain()
	} else {
		sp.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("err = %v, want the contained worker panic", err)
	}
}

// TestChaosCancellationMidInterval: cancelling the context mid-interval
// stops the run promptly with ctx.Err(), drains the engine, and leaks
// nothing.
func TestChaosCancellationMidInterval(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	// ~1ms of injected stall per 512-event batch keeps the stream alive
	// long past the deadline without burning CPU.
	src := &faultinject.SlowSource{Inner: stream(t, 1000*cfg.IntervalLength), Every: 512, Delay: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := hwprof.Profile(ctx, src, hwprof.WithConfig(cfg), hwprof.WithShards(4), hwprof.WithoutOracle())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestChaosTruncatedTrace: a trace cut off mid-stream must end a run with
// ErrTraceTruncated — not silently report fewer intervals.
func TestChaosTruncatedTrace(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	var buf bytes.Buffer
	if _, err := hwprof.WriteTrace(&buf, hwprof.KindValue, stream(t, 3*cfg.IntervalLength), 0); err != nil {
		t.Fatal(err)
	}
	r, err := hwprof.OpenTrace(faultinject.TruncatedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()*2/3)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := hwprof.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hwprof.Profile(context.Background(), r, hwprof.WithEngine(p),
		hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle())
	if !errors.Is(err, hwprof.ErrTraceTruncated) {
		t.Fatalf("err = %v, want ErrTraceTruncated", err)
	}
}

// TestChaosTraceIOError: an I/O failure beneath the trace reader surfaces
// through the run as the device's error.
func TestChaosTraceIOError(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	var buf bytes.Buffer
	if _, err := hwprof.WriteTrace(&buf, hwprof.KindValue, stream(t, 2*cfg.IntervalLength), 0); err != nil {
		t.Fatal(err)
	}
	r, err := hwprof.OpenTrace(&faultinject.FailingReader{R: bytes.NewReader(buf.Bytes()), After: int64(buf.Len() / 2)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := hwprof.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hwprof.Profile(context.Background(), r, hwprof.WithEngine(p),
		hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected I/O fault", err)
	}
}

// TestChaosStragglerShard: one slow shard must back up its own queue, not
// deadlock interval boundaries or shutdown.
func TestChaosStragglerShard(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	sp, err := hwprof.NewShardedFrom(hwprof.ShardedConfig{
		Core:       cfg,
		NumShards:  4,
		BatchSize:  64,
		QueueDepth: 1,
		WorkerHook: faultinject.SlowWorkerHook(0, 2*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := hwprof.Profile(context.Background(), stream(t, 3*cfg.IntervalLength), hwprof.WithEngine(sp),
		hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle())
	if err != nil || n != 3 {
		t.Fatalf("straggler run: intervals = %d, err = %v", n, err)
	}
	// Drain still has to complete despite the straggler's backed-up queue.
	// (Its profile need not be empty: BestMultiHash retains accumulator
	// entries across interval boundaries.)
	if _, err := sp.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDrainAfterSourceFailure: when the stream dies mid-interval the
// partial interval is still recoverable via Drain.
func TestChaosDrainAfterSourceFailure(t *testing.T) {
	checkGoroutines(t)
	cfg := chaosConfig()
	sp, err := hwprof.NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := &faultinject.FailingSource{
		Inner: stream(t, 10*cfg.IntervalLength),
		After: cfg.IntervalLength + cfg.IntervalLength/2,
	}
	n, err := hwprof.Profile(context.Background(), src, hwprof.WithEngine(sp),
		hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle())
	if !errors.Is(err, faultinject.ErrInjected) || n != 1 {
		t.Fatalf("run = %d intervals, err = %v; want 1 interval and the injected fault", n, err)
	}
	profile, err := sp.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) == 0 {
		t.Fatal("the half interval observed before the fault was lost")
	}
}
