package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/client"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/server"
	"hwprof/internal/wire"
)

// startServer runs a daemon on a loopback port and shuts it down with the
// test, asserting a clean Serve exit.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func testConfig(seed uint64) core.Config {
	return core.Config{
		IntervalLength:     1000,
		ThresholdPercent:   1,
		TotalEntries:       256,
		NumTables:          4,
		CounterWidth:       24,
		ConservativeUpdate: true,
		Retain:             true,
		Seed:               seed,
	}
}

// localProfiles runs the workload through the in-process sharded engine —
// the reference the remote path must match bit for bit.
func localProfiles(t *testing.T, cfg core.Config, shards int, workload string, seed uint64, intervals int) []map[event.Tuple]uint64 {
	t.Helper()
	src, err := hwprof.NewWorkload(workload, hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[event.Tuple]uint64
	n, err := hwprof.Profile(context.Background(), hwprof.Limit(src, cfg.IntervalLength*uint64(intervals)),
		hwprof.WithConfig(cfg), hwprof.WithShards(shards), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, hw map[event.Tuple]uint64) { got = append(got, hw) }))
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if n != intervals {
		t.Fatalf("local run: %d intervals, want %d", n, intervals)
	}
	return got
}

// remoteProfiles streams the same workload through a daemon session.
func remoteProfiles(t *testing.T, addr string, cfg core.Config, shards int, workload string, seed uint64, intervals int) []map[event.Tuple]uint64 {
	t.Helper()
	sess, err := client.Dial(addr, cfg, client.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	src, err := hwprof.NewWorkload(workload, hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[event.Tuple]uint64
	n, err := sess.Run(hwprof.Limit(src, cfg.IntervalLength*uint64(intervals)),
		func(_ int, counts map[event.Tuple]uint64) { got = append(got, counts) })
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if n != intervals {
		t.Fatalf("remote run: %d intervals, want %d", n, intervals)
	}
	return got
}

func assertSameProfiles(t *testing.T, local, remote []map[event.Tuple]uint64, label string) {
	t.Helper()
	if len(local) != len(remote) {
		t.Fatalf("%s: %d local vs %d remote intervals", label, len(local), len(remote))
	}
	for i := range local {
		if !reflect.DeepEqual(local[i], remote[i]) {
			t.Fatalf("%s: interval %d differs: local %d entries, remote %d entries",
				label, i, len(local[i]), len(remote[i]))
		}
	}
}

// waitFor polls cond until it holds or the deadline passes; asynchronous
// teardown (session unregistration, metric updates) needs a grace period.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRemoteMatchesLocal is the subsystem's core guarantee: N concurrent
// clients stream synthetic workloads to one daemon and every returned
// profile is bit-identical to a local Profile over the same seed,
// configuration and shard count.
func TestRemoteMatchesLocal(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	cases := []struct {
		workload  string
		seed      uint64
		shards    int
		intervals int
	}{
		{"gcc", 11, 1, 3},
		{"go", 22, 2, 3},
		{"vortex", 33, 4, 2},
		{"gcc", 44, 2, 4},
	}
	var wg sync.WaitGroup
	for _, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := fmt.Sprintf("%s/seed=%d/shards=%d", tc.workload, tc.seed, tc.shards)
			cfg := testConfig(tc.seed + 100)
			local := localProfiles(t, cfg, tc.shards, tc.workload, tc.seed, tc.intervals)
			remote := remoteProfiles(t, addr, cfg, tc.shards, tc.workload, tc.seed, tc.intervals)
			assertSameProfiles(t, local, remote, label)
		}()
	}
	wg.Wait()

	m := srv.Metrics()
	if got := m.SessionsTotal.Load(); got != uint64(len(cases)) {
		t.Errorf("sessions_total = %d, want %d", got, len(cases))
	}
	if got := m.SessionErrors.Load(); got != 0 {
		t.Errorf("session_errors = %d, want 0", got)
	}
	waitFor(t, "sessions to unregister", func() bool { return m.SessionsActive.Load() == 0 })
}

// rawSession opens a session at the wire level, bypassing the client
// package, so tests can misbehave precisely.
func rawSession(t *testing.T, addr string, cfg core.Config) (net.Conn, *wire.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(conn)
	if err := wc.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(wire.MsgHello, wire.AppendHello(nil, wire.Hello{Config: cfg, Shards: 1})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgHelloAck {
		t.Fatalf("expected hello-ack, got type %d", typ)
	}
	if _, err := wire.DecodeHelloAck(payload); err != nil {
		t.Fatal(err)
	}
	return conn, wc
}

// TestMidStreamDisconnect injects an abrupt client disconnect mid-stream:
// the daemon must tear that session down, count the failure, and leave a
// concurrent healthy session's profiles untouched.
func TestMidStreamDisconnect(t *testing.T) {
	srv, addr := startServer(t, server.Config{})

	healthy := make(chan []map[event.Tuple]uint64, 1)
	go func() {
		healthy <- remoteProfiles(t, addr, testConfig(7), 2, "gcc", 5, 3)
	}()

	conn, wc := rawSession(t, addr, testConfig(1))
	batch := make([]event.Tuple, 100)
	for i := range batch {
		batch[i] = event.Tuple{A: uint64(i), B: 1}
	}
	if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // mid-stream: no drain, no goodbye

	m := srv.Metrics()
	waitFor(t, "disconnect to be counted", func() bool { return m.SessionErrors.Load() >= 1 })

	local := localProfiles(t, testConfig(7), 2, "gcc", 5, 3)
	assertSameProfiles(t, local, <-healthy, "healthy session")
	waitFor(t, "sessions to unregister", func() bool { return m.SessionsActive.Load() == 0 })
}

// TestCorruptFrameTearsDownSession injects a checksum-corrupt frame: the
// daemon must answer with a corruption error (inviting a resume), detach
// that session only, and count the corruption in telemetry.
func TestCorruptFrameTearsDownSession(t *testing.T) {
	srv, addr := startServer(t, server.Config{})

	healthy := make(chan []map[event.Tuple]uint64, 1)
	go func() {
		healthy <- remoteProfiles(t, addr, testConfig(9), 1, "go", 6, 2)
	}()

	conn, wc := rawSession(t, addr, testConfig(2))
	defer conn.Close()
	// A batch frame whose CRC trailer does not match its payload.
	if _, err := conn.Write([]byte{wire.MsgBatch, 4, 1, 2, 3, 4, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		t.Fatalf("expected an error frame, got %v", err)
	}
	if typ != wire.MsgError {
		t.Fatalf("expected error frame, got type %d", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeCorrupt {
		t.Fatalf("error code %d, want CodeCorrupt", e.Code)
	}
	if _, _, err := wc.ReadFrame(); err == nil {
		t.Fatal("session stayed open after corrupt frame")
	}

	m := srv.Metrics()
	if got := m.CorruptFrames.Load(); got < 1 {
		t.Errorf("frames_corrupt = %d, want >= 1", got)
	}
	waitFor(t, "corruption to be counted as a session error", func() bool { return m.SessionErrors.Load() >= 1 })

	local := localProfiles(t, testConfig(9), 1, "go", 6, 2)
	assertSameProfiles(t, local, <-healthy, "healthy session")
}

// TestShutdownDrainsSessions proves graceful shutdown: a mid-stream session
// gets its completed intervals, the final partial profile, and a clean
// goodbye; the completed intervals still match a local run.
func TestShutdownDrainsSessions(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	cfg := testConfig(3)
	sess, err := client.Dial(addr, cfg, client.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, 8)
	if err != nil {
		t.Fatal(err)
	}
	batched := hwprof.Batched(hwprof.Limit(src, 2500)) // 2.5 intervals
	buf := make([]event.Tuple, 512)
	for {
		n := batched.NextBatch(buf)
		if n == 0 {
			break
		}
		if err := sess.ObserveBatch(buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let the daemon pull the flushed batches off the socket before the
	// shutdown closes its read side.
	waitFor(t, "events to reach the engine", func() bool {
		return srv.Metrics().EventsTotal.Load() == 2500
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	var complete []map[event.Tuple]uint64
	finals := 0
	for p := range sess.Profiles() {
		if p.Final {
			finals++
			continue
		}
		complete = append(complete, p.Counts)
	}
	if err := sess.Err(); err != nil {
		t.Fatalf("session error after drain: %v", err)
	}
	if finals != 1 {
		t.Fatalf("%d final profiles, want 1", finals)
	}
	local := localProfiles(t, cfg, 2, "gcc", 8, 2)
	assertSameProfiles(t, local, complete, "drained session")

	var sb strings.Builder
	if err := srv.Metrics().Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hwprof_sessions_total 1", "hwprof_intervals_total 3", "hwprof_events_total 2500"} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("telemetry missing %q:\n%s", want, sb.String())
		}
	}
}

// TestSessionLimitRefusal fills the daemon and checks the next client is
// refused over the wire with an overload error, not a hang or a raw close.
func TestSessionLimitRefusal(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxSessions: 1})
	first, err := client.Dial(addr, testConfig(4), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	_, err = client.Dial(addr, testConfig(5), client.Options{})
	if err == nil {
		t.Fatal("second session admitted past the limit")
	}
	var e wire.ErrorMsg
	if !errors.As(err, &e) || e.Code != wire.CodeOverload {
		t.Fatalf("got %v, want a CodeOverload refusal", err)
	}
}

// TestHelloAckAdvertisesShedPolicy checks the backpressure policy is
// reported to the client at session open.
func TestHelloAckAdvertisesShedPolicy(t *testing.T) {
	_, addr := startServer(t, server.Config{Shed: true})
	sess, err := client.Dial(addr, testConfig(6), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Shedding() {
		t.Fatal("shed policy not advertised in hello-ack")
	}
}

// TestInvalidConfigRefused checks a bad Hello configuration is refused with
// a config error rather than crashing the session.
func TestInvalidConfigRefused(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	bad := wire.Hello{Config: core.Config{}} // zero config cannot validate
	if err := wc.WriteFrame(wire.MsgHello, wire.AppendHello(nil, bad)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("expected error frame, got type %d", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeConfig {
		t.Fatalf("error code %d, want CodeConfig", e.Code)
	}
	if _, _, err := wc.ReadFrame(); err != io.EOF && err == nil {
		t.Fatal("session stayed open after config refusal")
	}
}
