package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hwprof"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/server"
	"hwprof/internal/shard"
	"hwprof/internal/wire"
)

// perLayer lists every per-layer metric a traced run reports, in report
// order, with its unit. A metric of a layer a workload does not use
// (wire on local-long, journal on daemon-saturate) reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.observe_ns_per_event", "ns"},
	{"core.end_interval_us_p50", "us"},
	{"core.candidates_per_interval", "count"},
	{"core.net_error_pct", "%"},
	{"shard.observe_ns_per_event", "ns"},
	{"shard.end_interval_us_p50", "us"},
	{"shard.end_interval_us_p99", "us"},
	{"wire.encode_batch_ns_per_event", "ns"},
	{"wire.decode_batch_ns_per_event", "ns"},
	{"wire.frame_ns_per_event", "ns"},
	{"wire.bytes_per_event", "B"},
	{"wire.profile_encode_us", "us"},
	{"wire.profile_decode_us", "us"},
	{"client.send_ns_per_event", "ns"},
	{"server.queue_depth_mean", "count"},
	{"server.events_per_batch", "count"},
	{"server.emit_us_mean", "us"},
	{"server.failed_ops", "count"},
	{"journal.batch_ns_per_event", "ns"},
	{"journal.boundary_us_p50", "us"},
	{"journal.boundary_us_p99", "us"},
	{"journal.fsyncs_per_interval", "count"},
	{"journal.bytes_per_event", "B"},
	{"runtime.mallocs_per_event", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"events_per_s", "1/s"},
	{"interval_p50_ms", "ms"},
	{"interval_p95_ms", "ms"},
	{"interval_p99_ms", "ms"},
	{"core.self_ns_per_event", "ns"},
	{"shard.self_ns_per_event", "ns"},
	{"wire.self_ns_per_event", "ns"},
	{"client.self_ns_per_event", "ns"},
	{"server.self_ns_per_event", "ns"},
	{"journal.self_ns_per_event", "ns"},
	{"residual_ns_per_event", "ns"},
	{"trace_overhead_pct", "%"},
}

// ledgerLayers are the layers whose self time the ledger attributes, in
// pipeline order.
var ledgerLayers = []string{"client", "wire", "server", "shard", "core", "journal"}

// replica replays one stream's exact batch sequence through the modules
// the serving path calls — wire, shard, journal — from the benchmark's own
// code, one span per call. The shard engine's worker runs core on another
// goroutine, so core is replayed afterwards on a bare MultiHash fed the
// worker's exact batches, each core span parented to the shard call that
// shipped its batch.
type replica struct {
	tr      *tracer
	session int32
	cfg     core.Config
	eng     *shard.Profiler
	jw      *journal.Writer // nil unless the workload journals
	conn    *wire.Conn      // nil for the local engine: no wire
	enc     []byte
	penc    []byte
	dec     []event.Tuple
	ring    [][]byte

	pos      uint64 // absolute events fed
	inIntv   uint64 // events in the current interval
	interval uint64
	cands    int

	batches []batchRec // shard.observe calls, by absolute event range
	ends    []int32    // shard.end_interval span per interval
	digests []uint64   // shard profile digest per interval
}

type batchRec struct {
	end  uint64 // absolute position after the batch
	span int32
}

func newReplica(tr *tracer, session int32, cfg core.Config, wireOn bool, jopts *journal.Options) (*replica, error) {
	eng, err := shard.New(shard.Config{Core: cfg, NumShards: 1})
	if err != nil {
		return nil, err
	}
	r := &replica{tr: tr, session: session, cfg: cfg, eng: eng}
	if wireOn {
		r.conn = wire.NewConn(new(bytes.Buffer))
	}
	if jopts != nil {
		r.jw, err = journal.Create(*jopts, journal.Meta{SessionID: uint64(session), Hello: wire.Hello{Config: cfg, Shards: 1}})
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	return r, nil
}

// close ends the replica's engine and journal.
func (r *replica) close() error {
	r.eng.Close()
	if r.jw != nil {
		return r.jw.End()
	}
	return nil
}

// send replays one client send of batch: over the wire when the workload
// has one, then the daemon's clip-at-boundary loop into shard and journal.
func (r *replica) send(batch []event.Tuple, frameBytes *uint64) error {
	tr, s := r.tr, r.session
	root := tr.begin("replay.batch", -1, s)
	if r.conn != nil {
		sp := tr.begin("wire.encode", root, s)
		r.enc = wire.AppendBatch(r.enc[:0], batch)
		tr.end(sp)
		sp = tr.begin("wire.frame_write", root, s)
		err := r.conn.WriteFrame(wire.MsgBatch, r.enc)
		tr.end(sp)
		if err != nil {
			return err
		}
		*frameBytes += uint64(len(r.enc)) + 1 + uint64(uvarintLen(uint64(len(r.enc)))) + 4
		sp = tr.begin("wire.frame_read", root, s)
		_, payload, err := r.conn.ReadFrame()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("wire.decode", root, s)
		r.dec, err = wire.DecodeBatch(payload, r.dec[:0])
		tr.end(sp)
		if err != nil {
			return err
		}
		batch = r.dec
	}
	for len(batch) > 0 {
		n := uint64(len(batch))
		if rest := r.cfg.IntervalLength - r.inIntv; n > rest {
			n = rest
		}
		sp := tr.begin("shard.observe", root, s)
		r.eng.ObserveBatch(batch[:n])
		tr.end(sp)
		r.pos += n
		r.batches = append(r.batches, batchRec{end: r.pos, span: sp})
		if r.jw != nil {
			sp = tr.begin("journal.batch", root, s)
			err := r.jw.Batch(batch[:n], 0)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		r.inIntv += n
		batch = batch[n:]
		if r.inIntv == r.cfg.IntervalLength {
			if err := r.boundary(); err != nil {
				return err
			}
		}
	}
	tr.end(root)
	return nil
}

// boundary replays the daemon's interval end: engine barrier, profile
// encode, journal boundary, profile frame and the client's decode.
func (r *replica) boundary() error {
	tr, s := r.tr, r.session
	root := tr.begin("replay.boundary", -1, s)
	sp := tr.begin("shard.end_interval", root, s)
	prof := r.eng.EndInterval()
	tr.end(sp)
	r.ends = append(r.ends, sp)
	r.digests = append(r.digests, profileDigest(prof))
	r.cands += len(prof)
	if r.conn != nil || r.jw != nil {
		sp = tr.begin("wire.profile_encode", root, s)
		r.penc = wire.AppendProfile(r.penc[:0], wire.ProfileMsg{Index: r.interval, Counts: prof})
		tr.end(sp)
	}
	if r.jw != nil {
		if len(r.ring) == server.DefaultResumeWindow {
			r.ring = r.ring[1:]
		}
		r.ring = append(r.ring, append([]byte(nil), r.penc...))
		sp = tr.begin("journal.boundary", root, s)
		err := r.jw.Boundary(r.interval, 0, r.penc, r.ring)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if r.conn != nil {
		sp = tr.begin("wire.profile_frame", root, s)
		err := r.conn.WriteFrame(wire.MsgProfile, r.penc)
		var payload []byte
		if err == nil {
			_, payload, err = r.conn.ReadFrame()
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("wire.profile_decode", root, s)
		_, err = wire.DecodeProfile(payload)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.eng.Recycle(prof)
	r.interval++
	r.inIntv = 0
	tr.end(root)
	return nil
}

// replayCore feeds a bare MultiHash — the shard's own configuration —
// the batches the replica's shard worker received: each interval's events
// in pieces of the engine's batch size, the last piece flushed by the
// barrier. at(i) returns absolute event i of the stream. Every replayed
// interval's profile must match the one the shard produced, or the replay
// no longer mirrors the shard and the run fails.
func (r *replica) replayCore(at func(i uint64) event.Tuple) error {
	scfg := r.eng.Config().ShardConfig(0)
	mh, err := core.NewMultiHash(scfg)
	if err != nil {
		return err
	}
	bs := uint64(r.eng.Config().BatchSize)
	mh.PrewarmBatch(int(bs))
	buf := make([]event.Tuple, bs)
	L := r.cfg.IntervalLength
	tr, s := r.tr, r.session
	for k := uint64(0); k < r.interval; k++ {
		for off := uint64(0); off < L; off += bs {
			n := L - off
			if n > bs {
				n = bs
			}
			start := k*L + off
			for i := uint64(0); i < n; i++ {
				buf[i] = at(start + i)
			}
			parent := r.ends[k] // the barrier flushes the partial piece
			if n == bs {
				parent = r.shippedBy(start + n - 1)
			}
			sp := tr.begin("core.observe", parent, s)
			mh.ObserveBatch(buf[:n])
			tr.end(sp)
		}
		sp := tr.begin("core.end_interval", r.ends[k], s)
		prof := mh.EndInterval()
		tr.end(sp)
		if profileDigest(prof) != r.digests[k] {
			return fmt.Errorf("core replay of session %d, interval %d: profile differs from the shard's", s, k)
		}
		mh.Recycle(prof)
	}
	return nil
}

// shippedBy is the shard.observe span whose call routed absolute event i
// — the call that filled, and so shipped, the piece ending at i.
func (r *replica) shippedBy(i uint64) int32 {
	k := sort.Search(len(r.batches), func(j int) bool { return r.batches[j].end > i })
	return r.batches[k].span
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ledger is one workload's per-layer figures.
type ledger struct {
	res    *result
	events float64 // events replayed
	spans  []span
	dur    map[string]int64
	count  map[string]int
	self   map[string]float64 // ns/event per ledger layer
}

func newLedger(spans []span, events uint64) *ledger {
	l := &ledger{res: &result{}, events: float64(events), spans: spans, self: make(map[string]float64)}
	l.dur, l.count = totals(spans)
	for _, m := range perLayer {
		l.res.set(m.name, 0, m.unit)
	}
	for name, ns := range selfTimes(spans) {
		if layer := layerOf(name); layer != "replay" {
			l.self[layer] += float64(ns) / l.events
		}
	}
	return l
}

func (l *ledger) set(name string, v float64) {
	l.res.Metrics[name] = metric{Value: v, Unit: l.res.Metrics[name].Unit}
}

// perEvent is the total duration of the named spans in ns per replayed event.
func (l *ledger) perEvent(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += l.dur[n]
	}
	return float64(ns) / l.events
}

// meanUs is the mean duration of the named span in microseconds.
func (l *ledger) meanUs(name string) float64 {
	if l.count[name] == 0 {
		return 0
	}
	return float64(l.dur[name]) / float64(l.count[name]) / 1e3
}

// engine fills the core and shard figures every workload has.
func (l *ledger) engine(reps []*replica) {
	var cands, intervals int
	for _, r := range reps {
		cands += r.cands
		intervals += int(r.interval)
	}
	l.set("core.observe_ns_per_event", l.perEvent("core.observe"))
	l.set("core.end_interval_us_p50", percentile(durations(l.spans, "core.end_interval"), 0.50).Value)
	l.set("core.candidates_per_interval", float64(cands)/float64(intervals))
	l.set("shard.observe_ns_per_event", l.perEvent("shard.observe"))
	ends := durations(l.spans, "shard.end_interval")
	l.set("shard.end_interval_us_p50", percentile(ends, 0.50).Value)
	l.set("shard.end_interval_us_p99", percentile(ends, 0.99).Value)
	l.set("core.self_ns_per_event", l.self["core"])
	l.set("shard.self_ns_per_event", l.self["shard"])
}

func (l *ledger) runtime(rt runtimeStats, events uint64) {
	l.set("runtime.mallocs_per_event", float64(rt.mallocs)/float64(events))
	l.set("runtime.gc_cycles", float64(rt.gcs))
	l.set("runtime.gc_pause_ms", float64(rt.pauseNs)/1e6)
}

// attribute sets the residual — wall time per event minus every layer's
// self time — and prints the attribution table.
func (l *ledger) attribute(e *env, wall float64) {
	var sum float64
	for _, layer := range ledgerLayers {
		sum += l.self[layer]
	}
	l.set("residual_ns_per_event", wall-sum)
	e.printf("ledger %s (ns/event; wall %.2f = Σ layer self time + residual):", e.workload, wall)
	for _, layer := range ledgerLayers {
		e.printf("  %-9s %10.2f  %6.1f%%", layer, l.self[layer], 100*l.self[layer]/wall)
	}
	e.printf("  %-9s %10.2f  %6.1f%%", "residual", wall-sum, 100*(wall-sum)/wall)
}

// dumpSpans writes a run's spans next to the benchmark's other scratch
// files and says where.
func dumpSpans(e *env, kind string, spans []span) error {
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d-%s.csv", e.workload, e.seed, kind))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	e.printf("spans: %d %s spans written to %s", len(spans), kind, path)
	return nil
}

// localPasses is how many fresh-engine passes of the local-long stream
// the ledger replays: enough intervals for a p50 under the sample-count
// rule.
const localPasses = 5

func localLedger(e *env, stream []event.Tuple, ref localRef) (*result, error) {
	half := e.dur() / 2 // one untraced half, one traced
	before := readRuntime()
	u, err := runLocal(stream, ref, warmup, half, nil)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().since(before)
	tr := newTracer(time.Now(), 1<<16)
	t, err := runLocal(stream, ref, 0, half, tr)
	if err != nil {
		return nil, err
	}

	rep := newTracer(time.Now(), 1<<16)
	var reps []*replica
	var events uint64
	cfg := localConfig()
	for p := 0; p < localPasses; p++ {
		r, err := newReplica(rep, 0, cfg, false, nil)
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(stream); {
			n := len(stream) - off
			if n > event.DefaultBatchSize {
				n = event.DefaultBatchSize
			}
			if rest := int(cfg.IntervalLength - r.inIntv); n > rest {
				n = rest
			}
			if err := r.send(stream[off:off+n], nil); err != nil {
				return nil, err
			}
			off += n
		}
		r.close()
		if err := r.replayCore(func(i uint64) event.Tuple { return stream[i] }); err != nil {
			return nil, err
		}
		events += r.pos
		reps = append(reps, r)
	}

	l := newLedger(rep.spans, events)
	l.engine(reps)
	l.set("core.net_error_pct", ref.netErrPct)
	l.runtime(rt, u.outcome.Offered)
	l.set("events_per_s", u.eventsPerSecond())
	l.set("interval_p50_ms", windowedPercentile(u.latencies, 0.50, p50Window).Value)
	l.set("interval_p95_ms", windowedPercentile(u.latencies, 0.95, p95Window).Value)
	l.set("interval_p99_ms", windowedPercentile(u.latencies, 0.99, p99Window).Value)
	wallU := float64(u.elapsed.Nanoseconds()) / float64(u.outcome.Offered)
	wallT := float64(t.elapsed.Nanoseconds()) / float64(t.outcome.Offered)
	l.set("trace_overhead_pct", 100*(wallT/wallU-1))
	e.printf("traced half: %.2f ns/event vs %.2f untraced; %d local.batch spans", wallT, wallU, len(tr.spans))
	l.attribute(e, wallT)
	if err := dumpSpans(e, "run", tr.spans); err != nil {
		return nil, err
	}
	if err := dumpSpans(e, "replay", rep.spans); err != nil {
		return nil, err
	}
	outs := []outcome{u.outcome, t.outcome}
	finish(e, l.res, outs, true)
	return l.res, nil
}

// daemonReplayIntervals is how many intervals, across sessions, the
// daemon ledger replays.
const daemonReplayIntervals = 1000

func daemonLedger(e *env, spec daemonSpec, streams [][]event.Tuple) (*result, error) {
	half := e.dur() / 2 // one untraced half, one traced
	before := readRuntime()
	u, err := runDaemon(spec, streams, warmup, half, e.tmp, nil)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().since(before)
	tr := newTracer(time.Now(), 1<<18)
	t, err := runDaemon(spec, streams, warmup, half, e.tmp, tr)
	if err != nil {
		return nil, err
	}
	var outs []outcome
	for _, run := range []*daemonRun{u, t} {
		o, err := run.verify(streams)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o...)
	}

	// Replay the same send order through the modules.
	rep := newTracer(time.Now(), 1<<18)
	cfg := daemonConfig()
	var jopts *journal.Options
	var syncs, appended uint64
	if spec.journal {
		dir, err := os.MkdirTemp(e.tmp, "replay-journal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		jopts = &journal.Options{Dir: dir, Sync: journal.SyncInterval,
			OnAppend: func(n int64) { appended += uint64(n) }, OnSync: func() { syncs++ }}
	}
	reps := make([]*replica, spec.sessions)
	for i := range reps {
		if reps[i], err = newReplica(rep, int32(i+1), cfg, true, jopts); err != nil {
			return nil, err
		}
	}
	var frameBytes uint64
	per := int(cfg.IntervalLength / chunk)
	for j := 0; j < daemonReplayIntervals*per; j++ {
		s := j % spec.sessions
		if err := reps[s].send(chunkAt(streams[s], chunk, j/spec.sessions), &frameBytes); err != nil {
			return nil, err
		}
	}
	var events uint64
	for i, r := range reps {
		if err := r.close(); err != nil {
			return nil, err
		}
		st := streams[i]
		if err := r.replayCore(func(k uint64) event.Tuple { return st[k%uint64(len(st))] }); err != nil {
			return nil, err
		}
		events += r.pos
	}

	l := newLedger(rep.spans, events)
	l.engine(reps)
	netErr, err := shortNetError(streams[0])
	if err != nil {
		return nil, err
	}
	l.set("core.net_error_pct", netErr)
	intervals := float64(daemonReplayIntervals)
	l.set("wire.encode_batch_ns_per_event", l.perEvent("wire.encode"))
	l.set("wire.decode_batch_ns_per_event", l.perEvent("wire.decode"))
	l.set("wire.frame_ns_per_event", l.perEvent("wire.frame_write", "wire.frame_read"))
	l.set("wire.bytes_per_event", float64(frameBytes)/float64(events))
	l.set("wire.profile_encode_us", l.meanUs("wire.profile_encode"))
	l.set("wire.profile_decode_us", l.meanUs("wire.profile_decode"))
	l.set("wire.self_ns_per_event", l.self["wire"])
	if spec.journal {
		l.set("journal.batch_ns_per_event", l.perEvent("journal.batch"))
		bounds := durations(rep.spans, "journal.boundary")
		l.set("journal.boundary_us_p50", percentile(bounds, 0.50).Value)
		l.set("journal.boundary_us_p99", percentile(bounds, 0.99).Value)
		l.set("journal.fsyncs_per_interval", float64(syncs)/intervals)
		l.set("journal.bytes_per_event", float64(appended)/float64(events))
		l.set("journal.self_ns_per_event", l.self["journal"])
	}

	// The client and the server are measured on the live daemon: the
	// client's send calls by span, the server through its own counters.
	tdur, _ := totals(tr.spans)
	tEvents := float64(t.intervals()) * float64(cfg.IntervalLength)
	var tSent uint64
	for _, n := range t.sent {
		tSent += n
	}
	send := float64(tdur["client.send"]) / float64(tSent)
	l.set("client.send_ns_per_event", send)
	l.self["client"] = send - l.perEvent("wire.encode", "wire.frame_write")
	l.set("client.self_ns_per_event", l.self["client"])
	st := t.server
	l.set("server.queue_depth_mean", t.queueMean)
	l.set("server.events_per_batch", float64(st.events)/float64(st.batches))
	if st.emitCount > 0 {
		l.set("server.emit_us_mean", st.emitSum/float64(st.emitCount)*1e6)
	}
	l.set("server.failed_ops", float64(u.server.failedOps()+st.failedOps()))
	l.self["server"] = st.emitSum*1e9/tEvents -
		l.perEvent("shard.end_interval", "wire.profile_encode", "journal.boundary", "wire.profile_frame")
	l.set("server.self_ns_per_event", l.self["server"])
	l.runtime(rt, uint64(float64(u.intervals())*float64(cfg.IntervalLength)))
	latU, _ := u.measured()
	l.set("events_per_s", u.eventsPerSecond())
	l.set("interval_p50_ms", windowedPercentile(latU, 0.50, p50Window).Value)
	l.set("interval_p95_ms", windowedPercentile(latU, 0.95, p95Window).Value)
	l.set("interval_p99_ms", windowedPercentile(latU, 0.99, p99Window).Value)

	wallU, wallT := 1e9/u.eventsPerSecond(), 1e9/t.eventsPerSecond()
	if spec.rate > 0 {
		l.set("gen.late_ms_p99", percentile(t.late, 0.99).Value)
		latT, _ := t.measured()
		p50u, p50t := percentile(latU, 0.5).Value, percentile(latT, 0.5).Value
		l.set("trace_overhead_pct", 100*(p50t/p50u-1))
		e.printf("traced half: interval p50 %.3f ms vs %.3f untraced (open loop: overhead is on latency)", p50t, p50u)
	} else {
		l.set("trace_overhead_pct", 100*(wallT/wallU-1))
		e.printf("traced half: %.2f ns/event vs %.2f untraced", wallT, wallU)
	}
	l.attribute(e, wallT)
	if err := dumpSpans(e, "run", tr.spans); err != nil {
		return nil, err
	}
	if err := dumpSpans(e, "replay", rep.spans); err != nil {
		return nil, err
	}
	ok := u.sendErr == nil && t.sendErr == nil
	finish(e, l.res, outs, ok)
	return l.res, nil
}

// shortNetError is the daemon configuration's formula (1) error on one
// cycle of stream, in percent, against the perfect oracle.
func shortNetError(stream []event.Tuple) (float64, error) {
	cfg := daemonConfig()
	var sum float64
	n, err := hwprof.Profile(context.Background(), hwprof.NewSliceSource(stream), hwprof.WithConfig(cfg),
		hwprof.OnInterval(func(_ int, p, h map[event.Tuple]uint64) {
			sum += hwprof.EvalInterval(p, h, cfg.ThresholdCount()).Total
		}))
	if err != nil || n == 0 {
		return 0, err
	}
	return 100 * sum / float64(n), nil
}
