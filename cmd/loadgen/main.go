// Command loadgen is a load and chaos harness for the profiled daemon: it
// dials N concurrent sessions, streams synthetic workloads at a
// configurable event rate, and optionally injects connection faults —
// mid-frame disconnects and byte corruption — on a schedule, exercising
// the daemon's admission control, shed gate, and resume path under
// pressure. It reports per-session outcomes, aggregate throughput,
// client-observed interval-latency percentiles, shed rates, and reconnect
// counts; with -metrics it also scrapes the daemon's Prometheus endpoint
// and echoes the overload counters.
//
// Usage:
//
//	loadgen -addr localhost:9123 -sessions 8 -events 200000
//	loadgen -addr localhost:9123 -sessions 16 -rate 50000 -duration 30s \
//	    -hangup-every 2 -hangup-bytes 65536 -flip-every 3 \
//	    -metrics http://localhost:9124/metrics
//	loadgen -tree-daemons m1:9123,m2:9123,m3:9123 -tree-root localhost:9323 \
//	    -events 100000 -hangup-every 2
//	loadgen -kill-daemon-at 50000 -daemon-bin ./profiled -sessions 4 \
//	    -events 100000 -daemon-journal-sync batch -daemon-telemetry :9124
//	loadgen -addr localhost:9123 -sessions 4 -scenario pack.scn
//	loadgen -addr localhost:9123 -sessions 4 -events 300000 -verify \
//	    -hangup-every 3 -flip-every 4
//
// With -verify, every session also tees its accepted stream into memory
// and mirrors it through local engines, requiring the daemon's delivered
// profiles bit-identical. Against an elastic daemon the session's notice
// trail splits the mirror: each geometry-changing notice (live resize,
// ladder coarsen/shrink/restore) cold-starts a fresh local engine at the
// announced shape and stream boundary — the park-and-restage contract,
// checked end to end from the client side. Sessions whose profiles are
// lossy (shed policy) or whose geometry changed invisibly (a daemon crash
// lost the notice) are reported and skipped, not failed.
//
// With -scenario, each session streams the named scenario file instead of
// a flat workload: the engine geometry, stream length, per-phase rates and
// tenant mixes all come from the file (session i streams the scenario
// under seed+i so the daemon sees distinct streams of the same shape), and
// the scenario's fault windows arm connection faults — hangup or one-byte
// corruption — when the session's stream crosses them. Fault windows
// never change stream content, only transport behavior.
//
// Sessions refused admission are reported and tolerated (an overloaded
// daemon refusing work is correct behavior); any other session failure
// makes loadgen exit non-zero.
//
// With -kill-daemon-at, loadgen owns the daemon's lifecycle instead of
// dialing an external one: it spawns -daemon-bin listening on -addr with a
// write-ahead journal, streams every session to the given event offset,
// SIGKILLs the daemon mid-stream, restarts it on the same address — the
// restart replays the journals and re-parks the sessions — and requires
// every reconnecting session's profiles to come out bit-identical to an
// uninterrupted local run. With -daemon-telemetry set it also scrapes the
// restarted daemon and asserts the journal recovery counters are clean.
//
// With -tree-daemons, loadgen instead drives an aggregation tree: it opens
// one marked session per publishing daemon, fans a single union workload
// out across them by shard route (so the fleet behaves as one sharded
// engine), places an epoch mark on every session at each -interval
// boundary, subscribes to the -tree-root aggregator, and asserts that
// every merged fleet epoch is bit-identical to a local single-engine run
// over the union stream. The chaos flags still apply, so a hangup mid-run
// proves bit-identity survives a daemon link dying and resuming.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hwprof"
	"hwprof/internal/faultinject"
	"hwprof/internal/scenario"
	"hwprof/internal/shard"
	"hwprof/internal/wire"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:9123", "profiled daemon address (host:port)")
		metrics = flag.String("metrics", "", "daemon Prometheus endpoint to scrape after the run (e.g. http://localhost:9124/metrics)")

		sessions = flag.Int("sessions", 4, "concurrent sessions to dial")
		events   = flag.Uint64("events", 0, "events per session (0: derive from -rate × -duration, else 100000)")
		rate     = flag.Float64("rate", 0, "target events/sec per session (0: unthrottled)")
		duration = flag.Duration("duration", 10*time.Second, "with -events 0 and -rate set: stream for this long")
		workload = flag.String("workload", "gcc", "synthetic workload streamed by every session")
		scnPath  = flag.String("scenario", "", "scenario file streamed by every session; overrides -workload/-events/-rate/-interval/-entries/-tables/-shards/-batch and the chaos flags with the file's own schedule")
		seed     = flag.Uint64("seed", 1, "base seed; session i uses seed+i")

		interval = flag.Uint64("interval", 10_000, "profile interval length in events")
		entries  = flag.Int("entries", 2048, "total hash-table counters per session")
		tables   = flag.Int("tables", 4, "number of hash tables")
		shards   = flag.Int("shards", 1, "shards per session")
		batch    = flag.Int("batch", 0, "tuples per batch frame (default 512)")

		hangEvery = flag.Int("hangup-every", 0, "kill every k-th connection of each session mid-frame (0: off)")
		hangBytes = flag.Int64("hangup-bytes", 65536, "bytes into a killed connection to cut it")
		flipEvery = flag.Int("flip-every", 0, "corrupt one byte on every k-th connection of each session (0: off)")
		flipBytes = flag.Int64("flip-bytes", 8192, "bytes into a corrupted connection to flip")

		backoff  = flag.Duration("backoff-base", 20*time.Millisecond, "reconnect backoff base delay")
		attempts = flag.Int("max-attempts", 10, "reconnect attempts per outage (-1: unlimited)")

		verify = flag.Bool("verify", false, "mirror every session's accepted stream through local engines and require the daemon's profiles bit-identical; resize/degrade notices split the mirror into cold-started segments, so this holds against an elastic daemon too (lossy shed-policy sessions and geometry changes hidden by a daemon crash are reported and skipped)")

		treeDaemons = flag.String("tree-daemons", "", "comma-separated profiled -publish daemons; enables tree mode: one marked session per daemon, a union stream fanned out by shard route")
		treeRoot    = flag.String("tree-root", "", "root aggregator to subscribe to for merged fleet epochs (tree mode)")

		killAt          = flag.Uint64("kill-daemon-at", 0, "crash mode: per-session event offset at which the spawned daemon is SIGKILLed and restarted (0: off)")
		daemonBin       = flag.String("daemon-bin", "profiled", "crash mode: profiled binary to spawn on -addr")
		daemonJournal   = flag.String("daemon-journal-dir", "", "crash mode: journal directory handed to the spawned daemon (empty: a temp dir, removed after the run)")
		daemonSync      = flag.String("daemon-journal-sync", "batch", "crash mode: -journal-sync handed to the spawned daemon")
		daemonTelemetry = flag.String("daemon-telemetry", "", "crash mode: -telemetry address handed to the spawned daemon (empty: disabled)")
	)
	flag.Parse()

	perSession := *events
	if perSession == 0 {
		if *rate > 0 {
			perSession = uint64(*rate * duration.Seconds())
		} else {
			perSession = 100_000
		}
	}
	// Fault offsets inside the handshake/hello prologue would kill the
	// session before it exists; keep them past it.
	if *hangBytes < 256 {
		*hangBytes = 256
	}
	if *flipBytes < 256 {
		*flipBytes = 256
	}

	g := &generator{
		addr: *addr, sessions: *sessions, events: perSession, rate: *rate,
		workload: *workload, seed: *seed,
		cfg: hwprof.Config{
			IntervalLength:     *interval,
			ThresholdPercent:   1,
			TotalEntries:       *entries,
			NumTables:          *tables,
			CounterWidth:       24,
			ConservativeUpdate: true,
			Retain:             true,
		},
		shards: *shards, batch: *batch,
		hangEvery: *hangEvery, hangBytes: *hangBytes,
		flipEvery: *flipEvery, flipBytes: *flipBytes,
		backoff: *backoff, attempts: *attempts,
		verify: *verify,
	}
	if *scnPath != "" {
		if *killAt > 0 || *treeDaemons != "" {
			fmt.Fprintln(os.Stderr, "loadgen: -scenario is mutually exclusive with crash and tree mode")
			os.Exit(1)
		}
		text, err := os.ReadFile(*scnPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		sc, err := scenario.Parse(string(text))
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		// The scenario file is the whole run description: engine geometry,
		// stream length, pacing and fault schedule all come from it.
		g.scn = sc
		g.events = sc.TotalEvents()
		g.cfg = sc.Config()
		g.shards, g.batch = sc.Shards, sc.Batch
		g.rate = 0
		g.hangEvery, g.flipEvery = 0, 0
		g.workload = "scenario " + sc.Name
	}
	if *killAt > 0 {
		if *treeDaemons != "" {
			fmt.Fprintln(os.Stderr, "loadgen: crash mode and tree mode are mutually exclusive")
			os.Exit(1)
		}
		if *killAt >= perSession {
			fmt.Fprintf(os.Stderr, "loadgen: -kill-daemon-at %d must land mid-stream (< %d events per session)\n", *killAt, perSession)
			os.Exit(1)
		}
		dir, tmp := *daemonJournal, false
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "loadgen-journal-"); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				os.Exit(1)
			}
			tmp = true
		}
		metricsURL := *metrics
		if metricsURL == "" && *daemonTelemetry != "" {
			hostport := *daemonTelemetry
			if strings.HasPrefix(hostport, ":") {
				hostport = "localhost" + hostport
			}
			metricsURL = "http://" + hostport + "/metrics"
		}
		d := &daemonProc{
			bin: *daemonBin, listen: *addr, telemetry: *daemonTelemetry,
			journalDir: dir, journalSync: *daemonSync,
		}
		err := g.crash(d, *killAt, metricsURL)
		if tmp {
			os.RemoveAll(dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if *treeDaemons != "" {
		var daemons []string
		for _, d := range strings.Split(*treeDaemons, ",") {
			if d = strings.TrimSpace(d); d != "" {
				daemons = append(daemons, d)
			}
		}
		if *treeRoot == "" {
			fmt.Fprintln(os.Stderr, "loadgen: tree mode needs -tree-root")
			os.Exit(1)
		}
		err := g.tree(daemons, *treeRoot)
		if *metrics != "" {
			scrapeMetrics(*metrics)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	failed := g.run()
	if *metrics != "" {
		scrapeMetrics(*metrics)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d session(s) failed\n", failed)
		os.Exit(1)
	}
}

type generator struct {
	addr          string
	sessions      int
	events        uint64
	rate          float64
	workload      string
	scn           *scenario.Scenario
	seed          uint64
	cfg           hwprof.Config
	shards, batch int
	hangEvery     int
	hangBytes     int64
	flipEvery     int
	flipBytes     int64
	backoff       time.Duration
	attempts      int
	verify        bool

	mu        sync.Mutex
	latencies []float64 // seconds between consecutive profile deliveries
}

type outcome struct {
	idx        int
	intervals  int
	shed       uint64
	reconnects uint64
	resizes    uint64
	rung       int
	degrades   int
	parks      int
	verified   int    // intervals proven bit-identical under -verify
	skipped    string // why -verify could not judge this session
	refused    bool
	err        error
}

func (g *generator) run() (failed int) {
	fmt.Printf("loadgen: %d session(s) × %d events against %s", g.sessions, g.events, g.addr)
	if g.rate > 0 {
		fmt.Printf(" at %.0f events/s each", g.rate)
	}
	if g.hangEvery > 0 {
		fmt.Printf(", hangup every %d connection(s) at %d bytes", g.hangEvery, g.hangBytes)
	}
	if g.flipEvery > 0 {
		fmt.Printf(", corruption every %d connection(s) at %d bytes", g.flipEvery, g.flipBytes)
	}
	fmt.Println()

	start := time.Now()
	results := make(chan outcome, g.sessions)
	var wg sync.WaitGroup
	for i := 0; i < g.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- g.session(i)
		}(i)
	}
	wg.Wait()
	close(results)
	elapsed := time.Since(start)

	var ok, refused, identical, skipped int
	var sent, shed, reconnects, resizes uint64
	var degrades, parks int
	for r := range results {
		switch {
		case r.refused:
			refused++
			fmt.Printf("session %d: %v\n", r.idx, r.err)
		case r.err != nil:
			failed++
			fmt.Printf("session %d: FAILED: %v\n", r.idx, r.err)
		default:
			ok++
			sent += g.events
			shed += r.shed
			reconnects += r.reconnects
			resizes += r.resizes
			degrades += r.degrades
			parks += r.parks
			line := fmt.Sprintf("session %d: %d interval(s), %d shed, %d reconnect(s)",
				r.idx, r.intervals, r.shed, r.reconnects)
			if r.resizes > 0 || r.degrades > 0 || r.parks > 0 || r.rung > 0 {
				line += fmt.Sprintf(", %d resize(s), rung %d, notices degrade=%d park=%d",
					r.resizes, r.rung, r.degrades, r.parks)
			}
			switch {
			case r.skipped != "":
				skipped++
				line += fmt.Sprintf(" — verify skipped: %s", r.skipped)
			case r.verified > 0 || g.verify:
				identical++
				line += fmt.Sprintf(" — %d interval(s) bit-identical to the local mirror", r.verified)
			}
			fmt.Println(line)
		}
	}

	fmt.Printf("\nsessions: %d ok, %d admission-refused, %d failed\n", ok, refused, failed)
	if sent > 0 {
		obs := sent - shed
		fmt.Printf("throughput: %.0f events/s sent, %.0f events/s profiled over %v\n",
			float64(sent)/elapsed.Seconds(), float64(obs)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
		fmt.Printf("shed: %d of %d events (%.2f%%)\n", shed, sent, 100*float64(shed)/float64(sent))
		fmt.Printf("reconnects: %d\n", reconnects)
	}
	if resizes > 0 || degrades > 0 || parks > 0 {
		fmt.Printf("elastic: %d resize(s), notices degrade=%d park=%d\n", resizes, degrades, parks)
	}
	if g.verify {
		fmt.Printf("verify: %d session(s) bit-identical, %d skipped\n", identical, skipped)
	}
	g.mu.Lock()
	lat := append([]float64(nil), g.latencies...)
	g.mu.Unlock()
	if len(lat) > 0 {
		sort.Float64s(lat)
		fmt.Printf("interval latency: p50 %s  p90 %s  p99 %s  (n=%d)\n",
			fmtSeconds(percentile(lat, 0.50)), fmtSeconds(percentile(lat, 0.90)),
			fmtSeconds(percentile(lat, 0.99)), len(lat))
	}
	return failed
}

// session streams one full workload, recording inter-profile latencies.
func (g *generator) session(idx int) outcome {
	cfg := g.cfg
	dialer := g.chaosDialer(idx)
	var trigger *atomic.Pointer[faultinject.TriggerConn]
	if g.scn != nil {
		// The engine seed stays the scenario's: adversarial domains target
		// the engine's exact hash family, so every session attacks the same
		// geometry. Only the stream seed varies per session.
		if len(g.scn.Faults) > 0 {
			trigger = new(atomic.Pointer[faultinject.TriggerConn])
			dialer = triggerDialer(trigger)
		}
	} else {
		cfg.Seed = g.seed + uint64(idx)
	}
	sess, err := hwprof.Connect(context.Background(), g.addr, hwprof.WithConfig(cfg),
		hwprof.WithShards(g.shards), hwprof.WithBatchSize(g.batch), hwprof.WithReconnect(),
		hwprof.WithBackoff(g.backoff, 0), hwprof.WithMaxAttempts(g.attempts), hwprof.WithDialer(dialer))
	if err != nil {
		return outcome{idx: idx, refused: isOverload(err), err: err}
	}
	var paced hwprof.Source
	if g.scn != nil {
		src, err := g.scn.SourceSeed(g.scn.Seed + uint64(idx))
		if err != nil {
			return outcome{idx: idx, err: err}
		}
		paced = src
		if trigger != nil {
			paced = &faultArmSource{inner: paced, faults: g.scn.Faults, conn: trigger}
		}
		for _, p := range g.scn.Phases {
			if p.Rate > 0 {
				paced = &phasePacer{inner: paced, phases: g.scn.Phases, start: time.Now()}
				break
			}
		}
	} else {
		src, err := hwprof.NewWorkload(g.workload, hwprof.KindValue, cfg.Seed)
		if err != nil {
			return outcome{idx: idx, err: err}
		}
		paced = src
		if g.rate > 0 {
			paced = &pacedSource{inner: src, rate: g.rate, start: time.Now()}
		}
	}
	stream := hwprof.Limit(paced, g.events)
	var rec *recordSource
	if g.verify {
		rec = &recordSource{inner: stream}
		stream = rec
	}
	var profs []map[hwprof.Tuple]uint64
	last := time.Time{}
	n, err := sess.Run(stream, func(_ int, counts map[hwprof.Tuple]uint64) {
		now := time.Now()
		if !last.IsZero() {
			g.mu.Lock()
			g.latencies = append(g.latencies, now.Sub(last).Seconds())
			g.mu.Unlock()
		}
		last = now
		if g.verify {
			profs = append(profs, counts)
		}
	})
	if err != nil {
		return outcome{idx: idx, err: err}
	}
	out := outcome{idx: idx, intervals: n, shed: sess.ShedEvents(),
		reconnects: sess.Reconnects(), resizes: sess.Resizes(), rung: sess.Rung()}
	trail := sess.NoticeTrail()
	for _, nt := range trail {
		switch nt.Kind {
		case hwprof.NoticeDegrade:
			out.degrades++
		case hwprof.NoticePark:
			out.parks++
		}
	}
	if g.verify {
		switch {
		case out.shed > 0:
			// Shed events never reached the daemon's engine; no local mirror
			// can reproduce lossy profiles.
			out.skipped = fmt.Sprintf("%d event(s) shed; profiles are lossy", out.shed)
		case out.resizes > geometryChanges(cfg, g.shardCount(), trail):
			// The client counted a geometry change (from a resume ack) the
			// trail does not carry — the session resumed against a restarted
			// daemon that lost its staged notices, and the mirror cannot
			// place the segment split. The opposite inequality is normal: an
			// ack coalesces several in-outage changes into one count while
			// the redelivered notices keep the trail itself complete.
			out.skipped = "a geometry change during an outage is missing from the notice trail"
		default:
			if verr := verifySession(cfg, g.shardCount(), rec.buf, profs, trail); verr != nil {
				out.err = verr
				return out
			}
			out.verified = len(profs)
		}
	}
	return out
}

// shardCount is the per-session shard count as the daemon sees it.
func (g *generator) shardCount() int {
	if g.shards < 1 {
		return 1
	}
	return g.shards
}

// recordSource tees every event the session sends into a buffer — the
// exact accepted stream (exactly-once across reconnects) that -verify
// mirrors locally.
type recordSource struct {
	inner hwprof.Source
	buf   []hwprof.Tuple
}

func (r *recordSource) Next() (hwprof.Tuple, bool) {
	tp, ok := r.inner.Next()
	if ok {
		r.buf = append(r.buf, tp)
	}
	return tp, ok
}

func (r *recordSource) Err() error { return r.inner.Err() }

// geometryChanges folds a session's notice trail from its admitted
// geometry and counts the notices that actually changed the engine shape —
// the same arithmetic the client's Resizes counter runs, so a mismatch
// between the two means a change happened that the trail does not record.
func geometryChanges(cfg hwprof.Config, shards int, trail []hwprof.RemoteNotice) uint64 {
	var n uint64
	for _, nt := range trail {
		if nt.IntervalLength == 0 {
			continue
		}
		if nt.IntervalLength != cfg.IntervalLength || nt.TotalEntries != cfg.TotalEntries ||
			nt.NumTables != cfg.NumTables || nt.Shards != shards {
			n++
		}
		cfg.IntervalLength = nt.IntervalLength
		cfg.TotalEntries = nt.TotalEntries
		cfg.NumTables = nt.NumTables
		shards = nt.Shards
	}
	return n
}

// verifySession mirrors the accepted stream through local engines and
// requires the daemon's delivered profiles bit-identical. Every notice
// that changed the session's geometry splits the stream at its Observed
// boundary, and the segment after it runs cold through a fresh engine at
// the announced shape — exactly the park-and-restage contract the daemon
// claims for elastic resizes.
func verifySession(cfg hwprof.Config, shards int, stream []hwprof.Tuple,
	got []map[hwprof.Tuple]uint64, trail []hwprof.RemoteNotice) error {

	var want []map[hwprof.Tuple]uint64
	start := uint64(0)
	for _, nt := range trail {
		if nt.IntervalLength == 0 {
			continue
		}
		if nt.IntervalLength == cfg.IntervalLength && nt.TotalEntries == cfg.TotalEntries &&
			nt.NumTables == cfg.NumTables && nt.Shards == shards {
			continue // rung-only move: the engine was not restaged
		}
		if nt.Observed < start || nt.Observed > uint64(len(stream)) {
			return fmt.Errorf("verify: notice boundary at observed %d outside the sent stream (prev split %d, %d events)",
				nt.Observed, start, len(stream))
		}
		seg, err := segmentProfiles(cfg, shards, stream[start:nt.Observed])
		if err != nil {
			return err
		}
		want = append(want, seg...)
		start = nt.Observed
		cfg.IntervalLength = nt.IntervalLength
		cfg.TotalEntries = nt.TotalEntries
		cfg.NumTables = nt.NumTables
		shards = nt.Shards
	}
	seg, err := segmentProfiles(cfg, shards, stream[start:])
	if err != nil {
		return err
	}
	want = append(want, seg...)
	if len(got) != len(want) {
		return fmt.Errorf("verify: %d interval(s) delivered, local mirror produced %d", len(got), len(want))
	}
	for i := range want {
		if !countsEqual(got[i], want[i]) {
			return fmt.Errorf("verify: interval %d diverges from the local mirror", i)
		}
	}
	return nil
}

// segmentProfiles cold-starts a local engine at the given geometry and
// runs one stream segment through it, returning every complete interval
// profile.
func segmentProfiles(cfg hwprof.Config, shards int, events []hwprof.Tuple) ([]map[hwprof.Tuple]uint64, error) {
	eng, err := hwprof.NewSharded(cfg, shards)
	if err != nil {
		return nil, fmt.Errorf("verify: local mirror engine: %w", err)
	}
	defer eng.Close()
	var out []map[hwprof.Tuple]uint64
	var n uint64
	for len(events) > 0 {
		c := uint64(len(events))
		if rem := cfg.IntervalLength - n; c > rem {
			c = rem
		}
		eng.ObserveBatch(events[:c])
		events = events[c:]
		n += c
		if n == cfg.IntervalLength {
			out = append(out, eng.EndInterval())
			n = 0
		}
	}
	return out, eng.Err()
}

// tree drives a fleet aggregation tree and checks its root against a local
// single-engine run. One marked session per daemon acts as one shard of a
// fleet-wide engine: every session runs the same n-shard configuration,
// and each union-stream tuple goes to the session its shard route picks,
// so inside daemon i only shard i sees events. Marks placed on every
// session at each -interval boundary align the fleet's epochs to union
// stream positions, which makes the merged root epoch the exact per-shard
// decomposition of a local n-shard run over the union stream — compared
// bit-for-bit here.
func (g *generator) tree(daemons []string, root string) error {
	n := len(daemons)
	epochs := int(g.events / g.cfg.IntervalLength)
	if epochs == 0 {
		return fmt.Errorf("tree mode needs -events >= -interval (%d < %d)", g.events, g.cfg.IntervalLength)
	}
	total := uint64(epochs) * g.cfg.IntervalLength
	cfg := g.cfg
	cfg.Seed = g.seed // every session shards the SAME engine: one seed, not seed+i

	fmt.Printf("loadgen: tree mode: %d epoch(s) × %d events across %d daemon(s), root %s\n",
		epochs, cfg.IntervalLength, n, root)

	// Subscribe to the root before streaming so no epoch can fall out of
	// its retention ring before we read it.
	sub, err := hwprof.Subscribe(context.Background(), root,
		hwprof.WithIntervalLength(cfg.IntervalLength))
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", root, err)
	}
	defer sub.Close()
	var fleet []hwprof.EpochProfile
	collDone := make(chan struct{})
	go func() {
		defer close(collDone)
		for ep := range sub.C {
			fleet = append(fleet, ep)
			if len(fleet) >= epochs {
				return
			}
		}
	}()

	// One marked session per daemon, chaos dialer and all — session 0 gets
	// the first hangup, proving the tree survives a leaf link dying.
	ctx := context.Background()
	sessions := make([]*hwprof.RemoteSession, n)
	var profWg sync.WaitGroup
	for i, addr := range daemons {
		sess, err := hwprof.Connect(ctx, addr,
			hwprof.WithConfig(cfg), hwprof.WithShards(n), hwprof.WithBatchSize(g.batch),
			hwprof.WithMarks(),
			hwprof.WithBackoff(g.backoff, 0), hwprof.WithMaxAttempts(g.attempts),
			hwprof.WithDialer(g.chaosDialer(i)))
		if err != nil {
			return fmt.Errorf("daemon %s: %w", addr, err)
		}
		defer sess.Close()
		sessions[i] = sess
		profWg.Add(1)
		go func(s *hwprof.RemoteSession) { // keep the profile channel drained
			defer profWg.Done()
			for range s.Profiles() {
			}
		}(sess)
	}

	// Stream the union workload, routing tuple by tuple.
	src, err := hwprof.NewWorkload(g.workload, hwprof.KindValue, cfg.Seed)
	if err != nil {
		return err
	}
	var paced hwprof.Source = src
	if g.rate > 0 {
		paced = &pacedSource{inner: src, rate: g.rate, start: time.Now()}
	}
	for pos := uint64(0); pos < total; pos++ {
		t, ok := paced.Next()
		if !ok {
			return fmt.Errorf("workload ended after %d of %d events", pos, total)
		}
		i := int(shard.RouteHash(t) % uint64(n))
		if err := sessions[i].Observe(t); err != nil {
			return fmt.Errorf("daemon %s: %w", daemons[i], err)
		}
		if (pos+1)%cfg.IntervalLength == 0 {
			for i, s := range sessions {
				if err := s.Mark(); err != nil {
					return fmt.Errorf("mark daemon %s: %w", daemons[i], err)
				}
			}
		}
	}
	var reconnects uint64
	for i, s := range sessions {
		if _, err := s.Drain(); err != nil {
			return fmt.Errorf("drain daemon %s: %w", daemons[i], err)
		}
		reconnects += s.Reconnects()
	}
	profWg.Wait()
	fmt.Printf("loadgen: tree: streamed %d events, reconnects: %d\n", total, reconnects)

	// The reference: the same union stream through one local n-shard engine.
	refSrc, err := hwprof.NewWorkload(g.workload, hwprof.KindValue, cfg.Seed)
	if err != nil {
		return err
	}
	var ref []map[hwprof.Tuple]uint64
	if _, err := hwprof.Profile(ctx, hwprof.Limit(refSrc, total),
		hwprof.WithConfig(cfg), hwprof.WithShards(n),
		hwprof.OnInterval(func(_ int, _, hardware map[hwprof.Tuple]uint64) {
			ref = append(ref, hardware)
		})); err != nil {
		return fmt.Errorf("local reference run: %w", err)
	}

	select {
	case <-collDone:
	case <-time.After(60 * time.Second):
		sub.Close()
		<-collDone
		return fmt.Errorf("timed out waiting for fleet epochs: got %d of %d", len(fleet), epochs)
	}
	sub.Close()
	if err := sub.Err(); err != nil {
		return fmt.Errorf("root subscription: %w", err)
	}
	if gaps := sub.Gaps(); gaps > 0 {
		return fmt.Errorf("root subscription skipped %d epoch(s) beyond retention", gaps)
	}

	bad := 0
	for _, ep := range fleet {
		if ep.Partial {
			bad++
			fmt.Printf("loadgen: tree: epoch %d PARTIAL, missing %v\n", ep.Epoch, ep.Missing)
			continue
		}
		if ep.Epoch >= uint64(len(ref)) || !countsEqual(ep.Counts, ref[ep.Epoch]) {
			bad++
			fmt.Printf("loadgen: tree: epoch %d MISMATCH: root has %d tuple(s), reference %d\n",
				ep.Epoch, len(ep.Counts), len(ref[ep.Epoch]))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d fleet epoch(s) diverged from the local union run", bad, epochs)
	}
	fmt.Printf("loadgen: tree: root profile bit-identical to single-engine union run (%d epochs, %d daemons)\n",
		epochs, n)
	return nil
}

// daemonProc is a profiled process loadgen owns in crash mode: spawned,
// SIGKILLed mid-stream, and respawned on the same address with the same
// journal so the restart replays it.
type daemonProc struct {
	bin, listen, telemetry  string
	journalDir, journalSync string

	cmd    *exec.Cmd
	exited chan error
}

func (d *daemonProc) args() []string {
	return []string{
		"-listen", d.listen,
		"-telemetry", d.telemetry,
		"-journal-dir", d.journalDir,
		"-journal-sync", d.journalSync,
		"-resume-grace", "1m",
	}
}

// start spawns the daemon and waits until its wire port accepts, retrying
// the spawn in case a restart races the dying process's socket release.
func (d *daemonProc) start() error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		cmd := exec.Command(d.bin, d.args()...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning %s: %w", d.bin, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		deadline := time.Now().Add(10 * time.Second)
		for {
			select {
			case err := <-exited:
				lastErr = fmt.Errorf("daemon exited during startup: %v", err)
			default:
				if c, err := net.DialTimeout("tcp", d.listen, time.Second); err == nil {
					c.Close()
					d.cmd, d.exited = cmd, exited
					return nil
				}
				if time.Now().Before(deadline) {
					time.Sleep(20 * time.Millisecond)
					continue
				}
				cmd.Process.Kill()
				<-exited
				lastErr = fmt.Errorf("daemon never accepted on %s", d.listen)
			}
			break
		}
	}
	return lastErr
}

// kill delivers kill -9: no drain, no goodbyes, buffered journal bytes lost.
func (d *daemonProc) kill() error {
	if err := d.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing daemon: %w", err)
	}
	<-d.exited
	return nil
}

// stop shuts the daemon down gracefully, escalating to SIGKILL on a stall.
func (d *daemonProc) stop() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.cmd = nil
}

// killGateSource delivers the wrapped stream up to the kill offset, then
// announces its arrival and blocks until the daemon restart completes — so
// every session holds mid-stream, with at most one partial batch unsent,
// while the daemon under it is killed and recovered.
type killGateSource struct {
	inner  hwprof.Source
	at     uint64
	arrive func()
	resume <-chan struct{}
	n      uint64
}

func (k *killGateSource) Next() (hwprof.Tuple, bool) {
	if k.n == k.at {
		k.arrive()
		<-k.resume
	}
	k.n++
	return k.inner.Next()
}

func (k *killGateSource) Err() error { return k.inner.Err() }

// crash drives sessions against a daemon loadgen itself spawned, kills the
// daemon with SIGKILL once every session has streamed killAt events, and
// restarts it on the same address. Each session holds at the kill point so
// the crash lands at a deterministic stream offset, then resumes against
// the restarted daemon's recovered tombstones; every session's delivered
// profiles must be bit-identical to an uninterrupted local run of the same
// workload and seed.
func (g *generator) crash(d *daemonProc, killAt uint64, metricsURL string) error {
	fmt.Printf("loadgen: crash mode: %d session(s) × %d events, SIGKILL at event %d, journal %s (sync %s)\n",
		g.sessions, g.events, killAt, d.journalDir, d.journalSync)
	if err := d.start(); err != nil {
		return err
	}
	defer d.stop()

	ctx := context.Background()
	restarted := make(chan struct{})
	var atGate sync.WaitGroup
	atGate.Add(g.sessions)

	type crashOutcome struct {
		idx        int
		profiles   []map[hwprof.Tuple]uint64
		reconnects uint64
		err        error
	}
	results := make(chan crashOutcome, g.sessions)
	for i := 0; i < g.sessions; i++ {
		go func(idx int) {
			var once sync.Once
			arrive := func() { once.Do(atGate.Done) } // a failed session must not wedge the gate
			defer arrive()
			out := crashOutcome{idx: idx}
			defer func() { results <- out }()

			cfg := g.cfg
			cfg.Seed = g.seed + uint64(idx)
			sess, err := hwprof.Connect(ctx, g.addr,
				hwprof.WithConfig(cfg), hwprof.WithShards(g.shards), hwprof.WithBatchSize(g.batch),
				hwprof.WithBackoff(g.backoff, 0), hwprof.WithMaxAttempts(g.attempts))
			if err != nil {
				out.err = err
				return
			}
			defer sess.Close()
			src, err := hwprof.NewWorkload(g.workload, hwprof.KindValue, cfg.Seed)
			if err != nil {
				out.err = err
				return
			}
			gated := &killGateSource{
				inner: hwprof.Limit(src, g.events), at: killAt,
				arrive: arrive, resume: restarted,
			}
			_, out.err = sess.Run(gated, func(_ int, counts map[hwprof.Tuple]uint64) {
				out.profiles = append(out.profiles, counts)
			})
			out.reconnects = sess.Reconnects()
		}(i)
	}

	atGate.Wait()
	// Give the daemon a beat to drain queued batches into the journal, so
	// the restart replays real stream content, not just the Hello record.
	time.Sleep(500 * time.Millisecond)
	fmt.Printf("loadgen: crash: all sessions held at event %d, killing the daemon\n", killAt)
	if err := d.kill(); err != nil {
		close(restarted)
		return err
	}
	if err := d.start(); err != nil {
		close(restarted)
		return fmt.Errorf("restarting daemon: %w", err)
	}
	fmt.Println("loadgen: crash: daemon restarted, releasing sessions")
	close(restarted)

	outs := make([]crashOutcome, g.sessions)
	for i := 0; i < g.sessions; i++ {
		out := <-results
		outs[out.idx] = out
	}
	failed := 0
	var reconnects uint64
	for _, out := range outs {
		if out.err != nil {
			failed++
			fmt.Printf("session %d: FAILED: %v\n", out.idx, out.err)
			continue
		}
		// The reference: the same workload and seed through a local engine,
		// no daemon and no crash in the path.
		cfg := g.cfg
		cfg.Seed = g.seed + uint64(out.idx)
		refSrc, err := hwprof.NewWorkload(g.workload, hwprof.KindValue, cfg.Seed)
		if err != nil {
			return err
		}
		var ref []map[hwprof.Tuple]uint64
		if _, err := hwprof.Profile(ctx, hwprof.Limit(refSrc, g.events),
			hwprof.WithConfig(cfg), hwprof.WithShards(g.shards), hwprof.WithoutOracle(),
			hwprof.OnInterval(func(_ int, _, hw map[hwprof.Tuple]uint64) { ref = append(ref, hw) })); err != nil {
			return fmt.Errorf("local reference run: %w", err)
		}
		switch {
		case len(out.profiles) != len(ref):
			failed++
			fmt.Printf("session %d: FAILED: %d interval(s) delivered, reference has %d\n",
				out.idx, len(out.profiles), len(ref))
		case out.reconnects == 0:
			failed++
			fmt.Printf("session %d: FAILED: no reconnect observed — the kill exercised no recovery\n", out.idx)
		default:
			bad := 0
			for e := range ref {
				if !countsEqual(out.profiles[e], ref[e]) {
					bad++
				}
			}
			if bad > 0 {
				failed++
				fmt.Printf("session %d: FAILED: %d of %d interval(s) diverge from the uninterrupted run\n",
					out.idx, bad, len(ref))
				continue
			}
			reconnects += out.reconnects
			fmt.Printf("session %d: %d interval(s) bit-identical across the kill, %d reconnect(s)\n",
				out.idx, len(ref), out.reconnects)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d session(s) failed", failed, g.sessions)
	}

	if metricsURL != "" {
		vals, err := fetchMetrics(metricsURL)
		if err != nil {
			return fmt.Errorf("scraping %s: %w", metricsURL, err)
		}
		if got := vals["hwprof_journal_recovered_sessions_total"]; got != float64(g.sessions) {
			return fmt.Errorf("hwprof_journal_recovered_sessions_total = %g, want %d", got, g.sessions)
		}
		if got := vals["hwprof_journal_recover_failures_total"]; got != 0 {
			return fmt.Errorf("hwprof_journal_recover_failures_total = %g, want 0", got)
		}
		if got := vals["hwprof_journal_torn_truncations_total"]; got > 0 {
			fmt.Printf("loadgen: crash: %g torn journal tail(s) truncated on recovery\n", got)
		}
		fmt.Printf("loadgen: crash: recovery counters clean (%d recovered, 0 failures)\n", g.sessions)
	}
	fmt.Printf("loadgen: crash: PASS — %d session(s) resumed bit-identically across a daemon SIGKILL (%d reconnect(s))\n",
		g.sessions, reconnects)
	return nil
}

// fetchMetrics scrapes a Prometheus text endpoint into name → value.
func fetchMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			vals[fields[0]] = v
		}
	}
	return vals, nil
}

// countsEqual compares two profiles bit-for-bit.
func countsEqual(a, b map[hwprof.Tuple]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for t, c := range a {
		if b[t] != c {
			return false
		}
	}
	return true
}

// chaosDialer wraps each session's dials with the configured fault plan:
// starting with the first connection, every k-th one is cut or corrupted
// at a deterministic byte offset, spread across sessions and attachments
// so faults land at varied stream positions. Offsets grow with each
// reattachment, so a session always makes progress between faults.
func (g *generator) chaosDialer(idx int) func(string, time.Duration) (net.Conn, error) {
	dials := 0
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		dials++
		switch {
		case g.hangEvery > 0 && dials%g.hangEvery == 1%g.hangEvery:
			off := g.hangBytes + int64(idx*1021+dials*4099)
			conn = &faultinject.HangupConn{Conn: conn, After: off}
		case g.flipEvery > 0 && dials%g.flipEvery == 1%g.flipEvery:
			off := g.flipBytes + int64(idx*509+dials*257)
			conn = &faultinject.FlipConn{Conn: conn, Byte: off}
		}
		return conn, nil
	}
}

// triggerDialer wraps every dial of a scenario session in a TriggerConn
// and publishes the live connection, so the stream-position watcher
// (faultArmSource) can arm faults on whatever connection is current —
// including the ones reconnection establishes after earlier faults.
func triggerDialer(cur *atomic.Pointer[faultinject.TriggerConn]) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		tc := &faultinject.TriggerConn{Conn: conn}
		cur.Store(tc)
		return tc, nil
	}
}

// faultArmSource watches the session's stream position and arms the
// scenario's next fault on the live connection when its window opens. The
// fault fires once per window, on the first write after the window's
// start position reaches the source — the stream itself is never altered,
// so a scenario run's recording is independent of its fault schedule.
type faultArmSource struct {
	inner  hwprof.Source
	faults []scenario.Fault // validated: sorted-compatible, non-overlapping
	conn   *atomic.Pointer[faultinject.TriggerConn]
	next   int
	pos    uint64
}

func (s *faultArmSource) Next() (hwprof.Tuple, bool) {
	if s.next < len(s.faults) && s.pos >= s.faults[s.next].From {
		f := s.faults[s.next]
		s.next++
		if c := s.conn.Load(); c != nil {
			switch f.Kind {
			case scenario.FaultHangup:
				c.Hangup()
			case scenario.FaultCorrupt:
				c.Corrupt()
			}
		}
	}
	s.pos++
	return s.inner.Next()
}

func (s *faultArmSource) Err() error { return s.inner.Err() }

// phasePacer throttles a scenario stream to each phase's own target rate,
// checking the clock every 256 events. Unpaced phases (rate 0) run at
// full speed; the clock restarts at every phase boundary.
type phasePacer struct {
	inner  hwprof.Source
	phases []scenario.Phase
	start  time.Time

	pi  int
	pos uint64 // position within the current phase
}

func (p *phasePacer) Next() (hwprof.Tuple, bool) {
	for p.pi < len(p.phases) && p.pos >= p.phases[p.pi].Events {
		p.pi++
		p.pos = 0
		p.start = time.Now()
	}
	if p.pi < len(p.phases) {
		if rate := p.phases[p.pi].Rate; rate > 0 && p.pos%256 == 0 {
			target := p.start.Add(time.Duration(float64(p.pos) / rate * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
	}
	p.pos++
	return p.inner.Next()
}

func (p *phasePacer) Err() error { return p.inner.Err() }

// pacedSource throttles the wrapped source to a target event rate, checking
// the clock every 256 events.
type pacedSource struct {
	inner hwprof.Source
	rate  float64
	start time.Time
	n     uint64
}

func (p *pacedSource) Next() (hwprof.Tuple, bool) {
	if p.n%256 == 0 {
		target := p.start.Add(time.Duration(float64(p.n) / p.rate * float64(time.Second)))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
	}
	p.n++
	return p.inner.Next()
}

func (p *pacedSource) Err() error { return p.inner.Err() }

// isOverload reports whether err is the daemon's admission refusal.
func isOverload(err error) bool {
	var e wire.ErrorMsg
	return asErrorMsg(err, &e) && e.Code == wire.CodeOverload
}

func asErrorMsg(err error, e *wire.ErrorMsg) bool {
	for err != nil {
		if m, ok := err.(wire.ErrorMsg); ok {
			*e = m
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// percentile reads the q-quantile from a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// scrapeMetrics fetches the daemon's Prometheus endpoint and echoes the
// overload-relevant series so a chaos run's server-side decisions are
// visible next to the client-side report.
func scrapeMetrics(url string) {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: scraping %s: %v\n", url, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: reading %s: %v\n", url, err)
		return
	}
	fmt.Printf("\ndaemon overload counters (%s):\n", url)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, prefix := range []string{
			"hwprof_admission_", "hwprof_shed_", "hwprof_events_shed",
			"hwprof_resume", "hwprof_tombstones_", "hwprof_sessions_",
			"hwprof_frames_corrupt", "hwprof_journal_",
			"hwprof_elastic_", "hwprof_ladder_", "hwprof_tenant_",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
				break
			}
		}
	}
}
