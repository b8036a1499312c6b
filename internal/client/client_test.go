package client

import (
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// nopConn is a daemon connection that swallows every frame.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error) { return len(p), nil }

// testSession is a resumable session over a connection that swallows
// every frame, with intervals of ivLen events and batch frames of batch
// events. Its reconnects dial the returned pipe end, which the test
// serves as the daemon.
func testSession(ivLen uint64, batch int, marked bool) (*Session, <-chan net.Conn) {
	daemon := make(chan net.Conn, 1)
	opts := Options{
		Reconnect: true,
		Marked:    marked,
		Dialer: func(string, time.Duration) (net.Conn, error) {
			c, d := net.Pipe()
			daemon <- d
			return c, nil
		},
	}.withDefaults()
	s := &Session{
		opts:      opts,
		batchSize: batch,
		pending:   make([]event.Tuple, 0, batch),
		wc:        wire.NewConn(nopConn{}),
		replayOn:  true,
		curLen:    ivLen,
		closeCh:   make(chan struct{}),
	}
	return s, daemon
}

// stream returns n distinct events: event i carries i.
func stream(n int) []event.Tuple {
	out := make([]event.Tuple, n)
	for i := range out {
		out[i] = event.Tuple{A: uint64(i), B: uint64(i) * 7}
	}
	return out
}

// checkBacklog asserts the replay buffer holds exactly the events in
// [floor, sentPos) and that its backing array stays within a constant
// factor of the most it ever had to hold.
func checkBacklog(t *testing.T, s *Session, events []event.Tuple, floor uint64, maxLive int) {
	t.Helper()
	if s.replayBase != floor {
		t.Fatalf("replay floor %d, want %d", s.replayBase, floor)
	}
	live := s.replay.live()
	if want := events[floor:s.sentPos]; !reflect.DeepEqual(live, want) {
		t.Fatalf("replay buffer holds %d events, want exactly the %d in [%d, %d)",
			len(live), len(want), floor, s.sentPos)
	}
	if c := cap(s.replay.buf); c > 4*maxLive+64 {
		t.Fatalf("replay buffer capacity %d for at most %d live events", c, maxLive)
	}
}

// serveResume plays the daemon's half of one resume: handshake, a
// ResumeAck at streamPos after intervals complete intervals, then it
// collects the replayed events and marks until the client has sent want
// events and wantMarks marks. Each mark is recorded as index<<32 | the
// stream position it arrived at.
func serveResume(t *testing.T, d net.Conn, intervals, streamPos, ivLen uint64, want, wantMarks int) ([]event.Tuple, []uint64, wire.Resume) {
	defer d.Close()
	wc := wire.NewConn(d)
	if err := wc.ServerHandshake(); err != nil {
		t.Error(err)
		return nil, nil, wire.Resume{}
	}
	_, payload, err := wc.ReadFrame()
	if err != nil {
		t.Error(err)
		return nil, nil, wire.Resume{}
	}
	r, err := wire.DecodeResume(payload)
	if err != nil {
		t.Error(err)
		return nil, nil, r
	}
	ack := wire.ResumeAck{Intervals: intervals, StreamPos: streamPos, IntervalLength: ivLen}
	if err := wc.WriteFrame(wire.MsgResumeAck, wire.AppendResumeAck(nil, ack)); err != nil {
		t.Error(err)
		return nil, nil, r
	}
	var got []event.Tuple
	var marks []uint64
	for len(got) < want || len(marks) < wantMarks {
		typ, payload, err := wc.ReadFrame()
		if err != nil {
			t.Error(err)
			return got, marks, r
		}
		switch typ {
		case wire.MsgBatch:
			batch, err := wire.DecodeBatch(payload, nil)
			if err != nil {
				t.Error(err)
				return got, marks, r
			}
			got = append(got, batch...)
		case wire.MsgMark:
			m, err := wire.DecodeMark(payload)
			if err != nil {
				t.Error(err)
				return got, marks, r
			}
			marks = append(marks, m.Index<<32|(streamPos+uint64(len(got))))
		default:
			t.Errorf("unexpected frame type %d during replay", typ)
			return got, marks, r
		}
	}
	return got, marks, r
}

// resume runs one resume attempt against serveResume.
func resume(t *testing.T, s *Session, daemon <-chan net.Conn, intervals, streamPos, ivLen uint64, wantMarks int) ([]event.Tuple, []uint64, wire.Resume) {
	t.Helper()
	type result struct {
		got   []event.Tuple
		marks []uint64
		r     wire.Resume
	}
	want := int(s.sentPos - streamPos)
	done := make(chan result, 1)
	go func() {
		got, marks, r := serveResume(t, <-daemon, intervals, streamPos, ivLen, want, wantMarks)
		done <- result{got, marks, r}
	}()
	s.mu.Lock()
	err := s.resumeOnce()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	res := <-done
	s.conn.Close()
	return res.got, res.marks, res.r
}

// TestReplayPruneKeepsExactBacklog drives a resumable session through
// interleaved flushes and profiles with the daemon lagging several
// intervals behind: after every step the replay buffer holds exactly the
// unacknowledged events, its storage stays bounded by the backlog rather
// than the stream, and a resume after hundreds of prunes replays the
// unconsumed suffix bit-identically.
func TestReplayPruneKeepsExactBacklog(t *testing.T) {
	const (
		ivLen     = 100
		batch     = 32
		lag       = 5 // intervals in flight
		intervals = 300
	)
	s, daemon := testSession(ivLen, batch, false)
	events := stream(ivLen * intervals)
	maxLive := (lag+1)*ivLen + batch

	var acked uint64 // profiles delivered
	for fed := 0; fed < len(events); {
		n := min(37, len(events)-fed) // batches that straddle interval boundaries
		if err := s.ObserveBatch(events[fed : fed+n]); err != nil {
			t.Fatal(err)
		}
		fed += n
		if fed%3 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// The daemon answers every interval older than the lag window.
		for (acked+lag+1)*ivLen <= s.sentPos {
			if _, ok := s.admitProfile(wire.ProfileMsg{Index: acked}); !ok {
				t.Fatalf("profile %d rejected", acked)
			}
			acked++
		}
		checkBacklog(t, s, events, min(acked*ivLen, s.sentPos), maxLive)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if acked < intervals-lag-1 {
		t.Fatalf("only %d profiles acknowledged", acked)
	}

	// The daemon comes back having consumed part of the next interval.
	pos := acked*ivLen + ivLen/3
	got, _, r := resume(t, s, daemon, acked, pos, ivLen, 0)
	if r.Floor != acked*ivLen || r.Intervals != acked {
		t.Fatalf("resume asked for floor %d after %d intervals, want %d after %d",
			r.Floor, r.Intervals, acked*ivLen, acked)
	}
	if want := events[pos:s.sentPos]; !reflect.DeepEqual(got, want) {
		t.Fatalf("resume replayed %d events, want the %d in [%d, %d) bit-identically",
			len(got), len(want), pos, s.sentPos)
	}
}

// TestMarkPruneKeepsExactBacklog is the marked-session counterpart: marks
// are pruned by the profiles that prove them consumed, and a resume after
// many prunes replays the unconsumed events with every outstanding mark
// at its exact stream position.
func TestMarkPruneKeepsExactBacklog(t *testing.T) {
	const lag = 4
	s, daemon := testSession(0, 16, true)
	events := stream(60_000)
	maxLive := (lag+1)*(25+96) + 16 // marks at most 121 events apart
	var bounds []uint64             // stream position of mark i
	var acked uint64
	for fed := 0; fed < len(events); {
		n := min(25+fed%97, len(events)-fed) // marks at irregular positions
		if err := s.ObserveBatch(events[fed : fed+n]); err != nil {
			t.Fatal(err)
		}
		fed += n
		if err := s.Mark(); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, uint64(fed))
		// Every seventh mark the daemon answers two intervals with one
		// profile, which proves both marks consumed at once.
		if step := uint64(1 + len(bounds)%7/6); acked+lag+step <= uint64(len(bounds)) {
			idx := acked + step - 1
			if _, ok := s.admitProfile(wire.ProfileMsg{Index: idx}); !ok {
				t.Fatalf("profile %d rejected", idx)
			}
			acked = idx + 1
		}
		floor := uint64(0)
		if acked > 0 {
			floor = bounds[acked-1]
		}
		checkBacklog(t, s, events, floor, maxLive)
		marks := s.marks.live()
		if len(marks) != len(bounds)-int(acked) {
			t.Fatalf("%d marks retained, want %d", len(marks), len(bounds)-int(acked))
		}
		for i, m := range marks {
			if k := acked + uint64(i); m.index != k || m.pos != bounds[k] {
				t.Fatalf("retained mark %d is %+v, want index %d at %d", i, m, k, bounds[k])
			}
		}
		if c := cap(s.marks.buf); c > 4*(lag+1)+8 {
			t.Fatalf("mark buffer capacity %d for at most %d live marks", c, lag+1)
		}
	}

	// The daemon consumed the events up to the first unacknowledged mark
	// but not the mark itself.
	pos := bounds[acked]
	got, marks, _ := resume(t, s, daemon, acked, pos, 0, len(bounds)-int(acked))
	if want := events[pos:s.sentPos]; !reflect.DeepEqual(got, want) {
		t.Fatalf("resume replayed %d events, want the %d in [%d, %d)", len(got), len(want), pos, s.sentPos)
	}
	var want []uint64
	for k := acked; k < uint64(len(bounds)); k++ {
		want = append(want, k<<32|bounds[k])
	}
	if !reflect.DeepEqual(marks, want) {
		t.Fatalf("replayed marks %x, want %x", marks, want)
	}
}
