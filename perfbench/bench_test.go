package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"hwprof/internal/event"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileSampleCountRule(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		value float64
		qUsed float64
	}{
		{1000, 0.99, 990, 0.99},            // exactly ten samples beyond rank 990
		{999, 0.99, 989, 989.0 / 999},      // rank 990 would leave nine: capped
		{100, 0.99, 90, 0.90},              // the highest rank with ten beyond
		{100, 0.50, 50, 0.50},              // a median needs only twenty samples
		{15, 0.50, 5, 5.0 / 15},            // too few for a median: capped
		{5, 0.99, 1, 0.2},                  // no percentile qualifies: smallest
		{2000, 0.99, 1980, 0.99},           // more samples than needed: exact
		{1010, 0.999, 1000, 1000.0 / 1010}, // p99.9 needs 10000 samples
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.q)
		if got.Value != c.value || math.Abs(got.Q-c.qUsed) > 1e-12 || got.N != c.n {
			t.Errorf("percentile(n=%d, q=%g) = %+v, want value %g at q %g", c.n, c.q, got, c.value, c.qUsed)
		}
		if beyond := c.n - int(got.Value); c.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d q=%g: only %d samples beyond the reported rank", c.n, c.q, beyond)
		}
	}
}

func TestWindowedPercentileIgnoresContention(t *testing.T) {
	// Four windows of 1000 intervals at 1 ms, three of them hit by host
	// contention: the reported p99 is the calm window's.
	var lat []float64
	for w := 0; w < 4; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if i >= 980 {
				v = 2 // each window's own tail
			}
			if w > 0 && i >= 500 {
				v = 50
			}
			lat = append(lat, v)
		}
	}
	got := windowedPercentile(lat, 0.99, 1000)
	if got.Value != 2 || got.Q != 0.99 || got.N != 4000 {
		t.Fatalf("windowed p99 = %+v, want 2 ms at p99 over 4000", got)
	}
	if pooled := percentile(append([]float64(nil), lat...), 0.99); pooled.Value != 50 {
		t.Fatalf("pooled p99 = %v, want the contended 50 ms", pooled.Value)
	}
}

func TestQuartileTakesTheCalmSide(t *testing.T) {
	rates := []float64{10, 10, 10, 10, 10, 10, 4, 3, 2, 1} // four slowed segments
	if got := quartile(rates, calmHigh); got != 10 {
		t.Fatalf("upper quartile of rates = %v, want 10", got)
	}
	times := []float64{1, 1, 1, 9, 9, 9, 9, 9} // five stalled repetitions
	if got := quartile(times, calmLow); got != 1 {
		t.Fatalf("lower quartile of times = %v, want 1", got)
	}
	if got := quartile(nil, calmLow); got != 0 {
		t.Fatalf("quartile of nothing = %v", got)
	}
}

func TestOpenLoopLatencyChargedFromDue(t *testing.T) {
	const ms = int64(time.Millisecond)
	per := int(daemonConfig().IntervalLength / chunk) // chunks per interval
	r := &daemonRun{
		spec:  daemonSpec{sessions: 1, rate: chunk * 1000}, // one chunk per ms
		sched: schedule{period: float64(ms)},
		cols:  []*collector{newCollector()},
	}
	// The sender stalls for 50 ms at chunk 25, then sends every overdue
	// chunk at once until it catches up with the schedule; each profile
	// arrives 1 ms after its interval's last chunk was sent.
	sent := func(j int) int64 {
		due := r.sched.due(j)
		if j >= 25 {
			return max(due, r.sched.due(25)+50*ms)
		}
		return due
	}
	for k := 0; k < 5; k++ {
		r.cols[0].arrivals = append(r.cols[0].arrivals, sent((k+1)*per-1)+ms)
	}
	lat, _ := r.measured()
	want := []float64{1, 37, 17, 1, 1} // intervals 1 and 2 both carry the stall
	for k := range want {
		if math.Abs(lat[k]-want[k]) > 1e-9 {
			t.Fatalf("open-loop latencies = %v, want %v", lat, want)
		}
	}

	// Timed from the send instead, as a closed loop is, the stall vanishes.
	r.spec.rate = 0
	for j := 0; j < 5*per; j++ {
		r.origins = append(r.origins, sent(j))
	}
	lat, _ = r.measured()
	for k, v := range lat {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("closed-loop latency %d = %v, want 1 ms", k, v)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "server.emit", Start: 0, End: 100, Parent: -1},  // 0
		{Name: "shard.end", Start: 10, End: 30, Parent: 0},     // 1: nested
		{Name: "journal.sync", Start: 40, End: 70, Parent: 0},  // 2: nested
		{Name: "journal.write", Start: 45, End: 55, Parent: 2}, // 3: grandchild
		{Name: "core.end", Start: 200, End: 205, Parent: 1},    // 4: mirrored child
		{Name: "wire.encode", Start: 300, End: -1, Parent: 0},  // unclosed: ignored
	}
	got := selfTimes(spans)
	want := map[string]int64{"server.emit": 50, "shard.end": 15, "journal.sync": 20, "journal.write": 10, "core.end": 5}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, got[name], ns)
		}
	}
	var sum int64
	for _, ns := range got {
		sum += ns
	}
	if sum != 100 { // the root's span: mirrored work is carved out of its parent
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestFailedFracCountsRefusalsAndShed(t *testing.T) {
	outs := []outcome{
		{Offered: 1000, Refused: true, IntervalLength: 100},           // every event fails
		{Offered: 10000, Shed: 300, Missing: 1, IntervalLength: 100},  // 300 + 100
		{Offered: 5000, Mismatched: 2, IntervalLength: 100},           // 200
		{Offered: 4000, IntervalLength: 100},                          // clean
		{Offered: 150, Shed: 100, Mismatched: 1, IntervalLength: 100}, // capped at offered
	}
	failed, attempted, frac := failedFrac(outs)
	if failed != 1000+400+200+0+150 || attempted != 20150 {
		t.Fatalf("failed %d of %d, want 1750 of 20150", failed, attempted)
	}
	if math.Abs(frac-1750.0/20150) > 1e-15 {
		t.Fatalf("failed_frac = %v", frac)
	}
	if _, _, frac := failedFrac(nil); frac != 0 {
		t.Fatalf("failed_frac of nothing = %v, want 0", frac)
	}
}

func TestSeedDeterminesStream(t *testing.T) {
	a, err := generate(defaultSeed, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(defaultSeed, 4096)
	c, _ := generate(heldOutSeed, 4096)
	if streamDigest(a) != streamDigest(b) {
		t.Fatal("the same seed gave different streams")
	}
	if streamDigest(a) == streamDigest(c) {
		t.Fatal("different seeds gave the same stream")
	}
	if _, _, err := checkSeeds(a, defaultSeed); err != nil {
		t.Fatal(err)
	}
	if streamSeed(defaultSeed, 0) != defaultSeed || streamSeed(defaultSeed, 1) == streamSeed(defaultSeed, 2) {
		t.Fatal("stream seeds are not distinct per session")
	}
}

func TestProfileDigestIsOrderFree(t *testing.T) {
	m1 := map[event.Tuple]uint64{}
	m2 := map[event.Tuple]uint64{}
	for i := uint64(0); i < 100; i++ {
		m1[event.Tuple{A: i, B: i * 7}] = i + 1
		m2[event.Tuple{A: 99 - i, B: (99 - i) * 7}] = 100 - i
	}
	if profileDigest(m1) != profileDigest(m2) {
		t.Fatal("equal profiles gave different digests")
	}
	m2[event.Tuple{A: 5, B: 35}]++
	if profileDigest(m1) == profileDigest(m2) {
		t.Fatal("profiles differing in one count gave the same digest")
	}
}

func TestCyclicSource(t *testing.T) {
	stream := []event.Tuple{{A: 1}, {A: 2}, {A: 3}}
	c := &cyclic{stream: stream, limit: 7}
	buf := make([]event.Tuple, 5)
	var got []uint64
	for n := c.NextBatch(buf); n > 0; n = c.NextBatch(buf) {
		for _, tp := range buf[:n] {
			got = append(got, tp.A)
		}
	}
	if want := "[1 2 3 1 2 3 1]"; fmt.Sprint(got) != want {
		t.Fatalf("cyclic = %v, want %s", got, want)
	}
	if ch := chunkAt([]event.Tuple{{A: 1}, {A: 2}, {A: 3}, {A: 4}}, 2, 3); ch[0].A != 3 {
		t.Fatalf("chunkAt wrapped to %v", ch)
	}
}

func TestPerLayerNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range perLayer {
		if !valid.MatchString(m.name) || seen[m.name] {
			t.Errorf("bad or repeated per-layer metric name %q", m.name)
		}
		seen[m.name] = true
	}
	for _, layer := range ledgerLayers {
		if !seen[layer+".self_ns_per_event"] {
			t.Errorf("ledger layer %s has no self_ns_per_event metric", layer)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "local-long", "--seconds", "0"},
		{"--workload", "local-long", "--trace", "2"},
		{"--workload", "daemon-saturate", "--window", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

// TestReplayCoreMatchesShard replays two intervals through a replica and
// checks that the core replay agrees with the shard, and that a profile
// the shard did not produce fails the replay.
func TestReplayCoreMatchesShard(t *testing.T) {
	cfg := daemonConfig()
	stream, err := generate(defaultSeed, int(2*cfg.IntervalLength))
	if err != nil {
		t.Fatal(err)
	}
	for _, tamper := range []bool{false, true} {
		r, err := newReplica(newTracer(time.Now(), 1024), 1, cfg, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(stream); off += chunk {
			if err := r.send(stream[off:off+chunk], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		if tamper {
			r.digests[1] ^= 1
		}
		err = r.replayCore(func(i uint64) event.Tuple { return stream[i] })
		if tamper != (err != nil) {
			t.Fatalf("tampered=%v: replayCore error %v", tamper, err)
		}
	}
}

// heapSink keeps TestLiveHeapReadsSamplePoints's buffers live.
var heapSink []byte

// TestLiveHeapReadsSamplePoints holds 32 MB between the probe's sample
// points and 8 MB at them, and checks that the probe reports the 8 MB
// live above its starting heap.
func TestLiveHeapReadsSamplePoints(t *testing.T) {
	heapSink = nil
	mb, err := liveHeapMB(func(sample func()) error {
		for i := 0; i < 3; i++ {
			heapSink = make([]byte, 32<<20)
			heapSink = make([]byte, 8<<20)
			sample()
		}
		heapSink = nil
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mb < 8 || mb > 9 {
		t.Fatalf("live heap = %.2f MB, want the 8 MB held at the sample points", mb)
	}
	if _, err := liveHeapMB(func(func()) error { return nil }); err == nil {
		t.Fatal("a probe without samples must fail")
	}
}

// TestHeapProbesRepeat runs each workload's memory probe twice and checks
// that the two agree: with nothing in flight at a sample, host timing
// cannot change what is live.
func TestHeapProbesRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	tmp := t.TempDir()
	local, err := generate(defaultSeed, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]func(func()) error{
		"local-long": func(sample func()) error { return localHeapProbe(local, sample) },
	}
	for name, spec := range map[string]daemonSpec{"daemon-saturate": saturateSpec, "daemon-durable": durableSpec} {
		streams := make([][]event.Tuple, spec.sessions)
		for i := range streams {
			if streams[i], err = generate(streamSeed(defaultSeed, i), 100_000); err != nil {
				t.Fatal(err)
			}
		}
		probes[name] = func(sample func()) error { return daemonHeapProbe(spec, streams, tmp, sample) }
	}
	for name, probe := range probes {
		a, err := liveHeapMB(probe)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := liveHeapMB(probe)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a <= 0 || math.Abs(a-b) > 0.05*a {
			t.Fatalf("%s: live heap %.4f MB then %.4f MB", name, a, b)
		}
		t.Logf("%s: live heap %.4f MB then %.4f MB", name, a, b)
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("probes left %d journal directories behind", len(entries))
	}
}

// TestDaemonRunsVerify streams both daemon workloads briefly and checks
// that every delivered profile matches the local reference.
func TestDaemonRunsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	tmp := t.TempDir()
	for _, spec := range []daemonSpec{saturateSpec, durableSpec} {
		streams := make([][]event.Tuple, spec.sessions)
		for i := range streams {
			s, err := generate(streamSeed(defaultSeed, i), 100_000)
			if err != nil {
				t.Fatal(err)
			}
			streams[i] = s
		}
		r, err := runDaemon(spec, streams, 0, 300*time.Millisecond, tmp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.sendErr != nil {
			t.Fatal(r.sendErr)
		}
		outs, err := r.verify(streams)
		if err != nil {
			t.Fatal(err)
		}
		failed, attempted, _ := failedFrac(outs)
		if failed != 0 || attempted == 0 || r.intervals() == 0 {
			t.Fatalf("%d sessions: %d of %d events failed over %d intervals", spec.sessions, failed, attempted, r.intervals())
		}
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("daemon runs left %d journal directories behind", len(entries))
	}
}
