package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"hwprof"
	"hwprof/internal/client"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/server"
)

// chunk is the number of events per client send: one ObserveBatch plus
// Flush, one batch frame. It divides the short regime's 10,000-event
// interval, so an interval's last event is always the last of a chunk.
const chunk = 500

// drainWait bounds how long the benchmark waits, after its last send, for
// a session's outstanding profiles; a profile later than that is missing.
const drainWait = 60 * time.Second

// daemonSpec describes a daemon workload.
type daemonSpec struct {
	sessions     int
	journal      bool
	rate         float64 // aggregate events/s, open loop; 0 = closed loop
	window       uint64  // closed loop: events a session may have in flight
	streamEvents int     // pre-generated events per session
}

// saturateWindow is daemon-saturate's default bound on a session's
// events in flight — sent, but not yet covered by a delivered profile — in
// intervals. Without a bound the sender fills the kernel's loopback
// buffers (autotuned to tens of MB) and every latency measures their depth
// rather than the daemon; README.md has the sweep the value comes from.
const saturateWindow = 2

var (
	saturateSpec = daemonSpec{sessions: 1, window: saturateWindow * daemonConfig().IntervalLength, streamEvents: 2_000_000}
	durableSpec  = daemonSpec{sessions: 2, journal: true, rate: 2_000_000, streamEvents: 1_000_000}
)

// daemonConfig is the profiler configuration every daemon session runs.
func daemonConfig() core.Config { return hwprof.BestMultiHash(hwprof.ShortIntervalConfig()) }

// daemon is one in-process profiled on loopback with its sessions open.
type daemon struct {
	srv      *server.Server
	served   chan error
	dir      string            // journal directory, "" when journaling is off
	sessions []*client.Session // nil where the daemon refused the session
	refused  []error
}

// startDaemon starts a daemon for spec and opens its sessions: the
// set-up a user pays before the first event can be sent.
func startDaemon(spec daemonSpec, tmp string) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	var cfg server.Config
	if spec.journal {
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		cfg.JournalDir = dir
		cfg.JournalSync = journal.SyncInterval
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.removeDir()
		return nil, err
	}
	d.srv = server.New(cfg)
	go func() { d.served <- d.srv.Serve(ln) }()
	for i := 0; i < spec.sessions; i++ {
		s, err := hwprof.Connect(context.Background(), ln.Addr().String(), hwprof.WithConfig(daemonConfig()))
		d.sessions = append(d.sessions, s)
		d.refused = append(d.refused, err)
	}
	return d, nil
}

// stop closes any session still open, shuts the daemon down, waits for
// it to stop serving and removes its journal directory.
func (d *daemon) stop() error {
	for _, s := range d.sessions {
		if s != nil {
			s.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	d.removeDir()
	return err
}

func (d *daemon) removeDir() {
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// collector records, for one session, each complete interval profile's
// arrival time and digest, until it holds as many as it is told to wait
// for.
type collector struct {
	arrivals []int64
	digests  []uint64
	shed     uint64
	outOfOrd int
	limit    chan int
	done     chan struct{}

	delivered atomic.Int64  // complete profiles received
	progress  chan struct{} // signalled, without blocking, per profile
}

func newCollector() *collector {
	return &collector{limit: make(chan int, 1), done: make(chan struct{}), progress: make(chan struct{}, 1)}
}

// awaitWindow blocks until a session with sent events outstanding has at
// most window − next of them not yet covered by a delivered profile, or
// the collector stops.
func (c *collector) awaitWindow(sent, next, window, intervalLength uint64) {
	for sent+next > uint64(c.delivered.Load())*intervalLength+window {
		select {
		case <-c.progress:
		case <-c.done:
			return
		}
	}
}

func (c *collector) run(profiles <-chan client.Profile, base time.Time) {
	defer close(c.done)
	limit := math.MaxInt
	for len(c.arrivals) < limit {
		select {
		case l := <-c.limit:
			limit = l
		case p, ok := <-profiles:
			if !ok {
				return
			}
			at := int64(time.Since(base))
			if p.Final {
				continue
			}
			if p.Index != uint64(len(c.arrivals)) {
				c.outOfOrd++
			}
			c.arrivals = append(c.arrivals, at)
			c.digests = append(c.digests, profileDigest(p.Counts))
			c.shed = p.Shed
			c.delivered.Add(1)
			select {
			case c.progress <- struct{}{}:
			default:
			}
		}
	}
}

// daemonRun is what one timed daemon run observed.
type daemonRun struct {
	spec      daemonSpec
	warm, dur int64     // ns; the measured window is [warm, warm+dur)
	sent      []uint64  // events sent per session
	origins   []int64   // closed loop: when each chunk was handed over
	sched     schedule  // open loop: when each chunk was due
	late      []float64 // open loop: how late each chunk was sent, ms
	cols      []*collector
	refused   []error // per session: why the daemon refused it, or nil
	sendErr   error
	server    serverStats
	queueMean float64       // sampled server queue depth, traced runs only
	cpu       time.Duration // process CPU time over the measured window
	cpuEvents uint64        // events sent in the measured window
}

// serverStats is the daemon's counter surface read after a run.
type serverStats struct {
	events, batches, shed, errors, corrupt, refused uint64
	emitSum                                         float64 // seconds
	emitCount                                       uint64
	fsyncs, journalBytes                            uint64
}

func readServerStats(m *server.Metrics) serverStats {
	return serverStats{
		events:       m.EventsTotal.Load(),
		batches:      m.BatchesTotal.Load(),
		shed:         m.EventsShed.Load(),
		errors:       m.SessionErrors.Load(),
		corrupt:      m.CorruptFrames.Load(),
		refused:      m.AdmissionRefusedCost.Load() + m.AdmissionRefusedLimit.Load() + m.AdmissionRefusedRate.Load(),
		emitSum:      m.IntervalLatency.Sum(),
		emitCount:    m.IntervalLatency.Count(),
		fsyncs:       m.JournalFsyncs.Load(),
		journalBytes: m.JournalBytes.Load(),
	}
}

// failedOps is the daemon's failure count: session errors, corrupt
// frames, shed events and refused sessions.
func (s serverStats) failedOps() uint64 { return s.errors + s.corrupt + s.shed + s.refused }

// warmup is how long a daemon run streams before its measured window
// opens: long enough for the loopback buffers, the journal files and the
// engines' caches to reach their steady state.
const warmup = time.Second

// runDaemon starts a daemon, streams the pre-generated streams into it
// for warm and then for the measured window dur, drains every session and
// stops the daemon. tr, when non-nil, records a client.send span around
// every send and the run samples the daemon's queue depth.
func runDaemon(spec daemonSpec, streams [][]event.Tuple, warm, dur time.Duration, tmp string, tr *tracer) (*daemonRun, error) {
	d, err := startDaemon(spec, tmp)
	if err != nil {
		return nil, err
	}
	r := &daemonRun{spec: spec, sent: make([]uint64, spec.sessions), refused: d.refused,
		warm: int64(warm), dur: int64(dur)}
	end := int64(warm + dur)
	base := time.Now()
	if tr != nil {
		tr.base = base
	}
	for _, s := range d.sessions {
		c := newCollector()
		r.cols = append(r.cols, c)
		if s == nil {
			close(c.done)
			continue
		}
		go c.run(s.Profiles(), base)
	}

	var sampled chan float64
	stopSampling := make(chan struct{})
	if tr != nil {
		sampled = make(chan float64, 1)
		go sampleQueue(d.srv.Metrics(), stopSampling, sampled)
	}

	if spec.rate > 0 {
		r.sched = schedule{period: float64(chunk) / spec.rate * 1e9}
		r.late = make([]float64, 0, int((warm+dur).Seconds()*spec.rate/chunk)+1)
	}
	n := spec.sessions
	L := daemonConfig().IntervalLength
	var cpu0 time.Duration
	opened := false
	for j := 0; ; j++ {
		now := int64(time.Since(base))
		if spec.rate > 0 {
			due := r.sched.due(j)
			if due > end {
				break
			}
			if now < due {
				time.Sleep(time.Duration(due - now))
				now = int64(time.Since(base))
			}
			if due >= r.warm {
				r.late = append(r.late, float64(now-due)/1e6)
			}
		} else {
			if now >= end {
				break
			}
			s := j % n
			r.cols[s].awaitWindow(r.sent[s], chunk, spec.window, L)
			now = int64(time.Since(base))
			r.origins = append(r.origins, now)
		}
		if !opened && now >= r.warm {
			opened, cpu0 = true, cpuTime()
			r.cpuEvents = total(r.sent)
		}
		s := j % n
		if d.sessions[s] == nil {
			r.sent[s] += chunk // offered to a refused session: failed
			continue
		}
		sp := tr.begin("client.send", -1, int32(s+1))
		err := d.sessions[s].ObserveBatch(chunkAt(streams[s], chunk, j/n))
		if err == nil {
			err = d.sessions[s].Flush()
		}
		tr.end(sp)
		if err != nil {
			r.sendErr = fmt.Errorf("session %d: sending: %w", s, err)
			break
		}
		r.sent[s] += chunk
	}

	if opened {
		r.cpu = cpuTime() - cpu0
		r.cpuEvents = total(r.sent) - r.cpuEvents
	}

	// Wait for every complete interval's profile, then drain each session
	// for its partial interval.
	deadline := time.After(drainWait)
	for i, c := range r.cols {
		if d.sessions[i] != nil {
			c.limit <- int(r.sent[i] / L)
		}
	}
	for i, c := range r.cols {
		if d.sessions[i] == nil {
			continue
		}
		select {
		case <-c.done:
		case <-deadline:
			d.sessions[i].Close()
			<-c.done
		}
	}
	for i, s := range d.sessions {
		if s == nil {
			continue
		}
		if _, err := s.Drain(); err != nil && !errors.Is(err, client.ErrSessionClosed) && r.sendErr == nil {
			r.sendErr = fmt.Errorf("session %d: drain: %w", i, err)
		}
	}
	close(stopSampling)
	if sampled != nil {
		r.queueMean = <-sampled
	}
	r.server = readServerStats(d.srv.Metrics())
	if err := d.stop(); err != nil && r.sendErr == nil {
		r.sendErr = fmt.Errorf("daemon shutdown: %w", err)
	}
	return r, nil
}

// total is the sum of v.
func total(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// heapProbeIntervals is how many intervals per session the daemon memory
// probe streams, and heapProbeEvery how often, in intervals, it samples.
const (
	heapProbeIntervals = 100
	heapProbeEvery     = 20
)

// daemonHeapProbe starts a daemon for spec and streams into its sessions
// in lock step: one interval on every session, then a wait until each
// session's profile for it has arrived. Every heapProbeEvery intervals,
// with nothing in flight, it calls sample.
func daemonHeapProbe(spec daemonSpec, streams [][]event.Tuple, tmp string, sample func()) error {
	d, err := startDaemon(spec, tmp)
	if err != nil {
		return err
	}
	cols := make([]*collector, spec.sessions)
	for i, s := range d.sessions {
		if s == nil {
			d.stop()
			return fmt.Errorf("session %d refused: %w", i, d.refused[i])
		}
		cols[i] = newCollector()
		go cols[i].run(s.Profiles(), time.Now())
	}
	L := daemonConfig().IntervalLength
	per := int(L / chunk)
	sent := uint64(0)
	for k := 1; k <= heapProbeIntervals && err == nil; k++ {
		for s, sess := range d.sessions {
			for c := 0; c < per && err == nil; c++ {
				if err = sess.ObserveBatch(chunkAt(streams[s], chunk, (k-1)*per+c)); err == nil {
					err = sess.Flush()
				}
			}
		}
		if err != nil {
			break
		}
		sent += L
		for _, c := range cols {
			c.awaitWindow(sent, 0, 0, L)
		}
		if k%heapProbeEvery == 0 {
			sample()
		}
	}
	for _, c := range cols {
		c.limit <- 0
		<-c.done
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return err
}

// sampleQueue samples the daemon's queued-batch gauge every millisecond until
// stop closes, then sends the mean.
func sampleQueue(m *server.Metrics, stop <-chan struct{}, out chan<- float64) {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	var sum float64
	var n int
	for {
		select {
		case <-stop:
			if n > 0 {
				sum /= float64(n)
			}
			out <- sum
			return
		case <-t.C:
			sum += float64(m.QueueDepth.Load())
			n++
		}
	}
}

// measured returns the latency, in milliseconds, of every delivered
// interval in the measured window — from when its last chunk was due
// (open loop) or was handed to the client (closed loop) to its profile's
// arrival — in origin order across sessions, and the arrival times of
// those intervals in ns.
func (r *daemonRun) measured() (lat []float64, arrivals []int64) {
	per := int(daemonConfig().IntervalLength / chunk)
	n := r.spec.sessions
	origin := func(j int) int64 {
		if r.spec.rate > 0 {
			return r.sched.due(j)
		}
		return r.origins[j]
	}
	type sample struct {
		origin, arrival int64
		ms              float64
	}
	var all []sample
	for s, c := range r.cols {
		for k, at := range c.arrivals {
			o := origin(((k+1)*per-1)*n + s)
			if o >= r.warm {
				all = append(all, sample{o, at, float64(at-o) / 1e6})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].origin < all[j].origin })
	for _, x := range all {
		lat = append(lat, x.ms)
		arrivals = append(arrivals, x.arrival)
	}
	return lat, arrivals
}

// rateSlice is the length of the closed loop's throughput segments.
const rateSlice = int64(500 * time.Millisecond)

// eventsPerSecond is the work completed in the measured window. Open
// loop: the window's delivered intervals over the time from the window's
// start to the last of them, which equals the offered rate unless a
// backlog built up. Closed loop: the upper quartile over the window's
// half-second slices of each slice's completion rate — the intervals
// after its first arrival over the time to its last.
func (r *daemonRun) eventsPerSecond() float64 {
	_, arrivals := r.measured()
	L := float64(daemonConfig().IntervalLength)
	if r.spec.rate > 0 {
		var last int64
		for _, at := range arrivals {
			last = max(last, at)
		}
		if last <= r.warm {
			return 0
		}
		return float64(len(arrivals)) * L / (float64(last-r.warm) / 1e9)
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	var rates []float64
	for lo := 0; lo < len(arrivals); {
		slice := (arrivals[lo] - r.warm) / rateSlice
		hi := lo
		for hi < len(arrivals) && (arrivals[hi]-r.warm)/rateSlice == slice {
			hi++
		}
		if n := hi - lo; n > 1 {
			rates = append(rates, float64(n-1)*L/(float64(arrivals[hi-1]-arrivals[lo])/1e9))
		}
		lo = hi
	}
	return quartile(rates, calmHigh)
}

// intervals is the number of complete intervals the daemon delivered.
func (r *daemonRun) intervals() int {
	n := 0
	for _, c := range r.cols {
		n += len(c.arrivals)
	}
	return n
}

// verify checks every delivered profile against the profiles a local
// hwprof.Profile run produces from the same events, config and seed, and
// returns one outcome per session.
func (r *daemonRun) verify(streams [][]event.Tuple) ([]outcome, error) {
	cfg := daemonConfig()
	var outs []outcome
	for s, c := range r.cols {
		var ref []uint64
		_, err := hwprof.Profile(context.Background(), &cyclic{stream: streams[s], limit: r.sent[s]},
			hwprof.WithConfig(cfg), hwprof.WithoutOracle(),
			hwprof.OnInterval(func(_ int, _, h map[event.Tuple]uint64) { ref = append(ref, profileDigest(h)) }))
		if err != nil {
			return nil, fmt.Errorf("reference for session %d: %w", s, err)
		}
		o := outcome{Offered: r.sent[s], Refused: r.refused[s] != nil, Shed: c.shed,
			IntervalLength: cfg.IntervalLength, Mismatched: c.outOfOrd}
		for k, want := range ref {
			if k >= len(c.digests) {
				o.Missing++
			} else if c.digests[k] != want {
				o.Mismatched++
			}
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// daemonSetupReps is how many times a daemon run measures set-up.
const daemonSetupReps = 51

// daemonSetup returns a daemon workload's set-up: daemon start plus every
// session's handshake.
func daemonSetup(spec daemonSpec, tmp string) func() (func() error, error) {
	return func() (func() error, error) {
		d, err := startDaemon(spec, tmp)
		if err != nil {
			return nil, err
		}
		for _, err := range d.refused {
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("session refused: %w", err)
			}
		}
		return d.stop, nil
	}
}
