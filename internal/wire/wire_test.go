package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// duplex is an in-memory bidirectional stream for handshake tests.
type duplex struct {
	r *bytes.Buffer
	w *bytes.Buffer
}

func (d duplex) Read(p []byte) (int, error)  { return d.r.Read(p) }
func (d duplex) Write(p []byte) (int, error) { return d.w.Write(p) }

func TestHandshake(t *testing.T) {
	var cToS, sToC bytes.Buffer
	client := NewConn(duplex{r: &sToC, w: &cToS})
	server := NewConn(duplex{r: &cToS, w: &sToC})

	// The client's send must land before the server reads; drive the
	// halves manually in buffer order.
	if err := client.sendHandshake(); err != nil {
		t.Fatalf("client send: %v", err)
	}
	if err := server.ServerHandshake(); err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if err := client.expectHandshake(); err != nil {
		t.Fatalf("client expect: %v", err)
	}
}

// TestHandshakeNegotiation pins the one-version rule: a peer at any
// version other than Version is refused with ErrProtocol, whichever side
// it is on, and a refused client gets no reply.
func TestHandshakeNegotiation(t *testing.T) {
	for _, v := range []byte{Version - 1, Version + 1} {
		var cToS, sToC bytes.Buffer
		cToS.WriteString(Magic)
		cToS.WriteByte(v)
		server := NewConn(duplex{r: &cToS, w: &sToC})
		if err := server.ServerHandshake(); !errors.Is(err, ErrProtocol) {
			t.Fatalf("client at v%d: server got %v, want ErrProtocol", v, err)
		}
		if sToC.Len() != 0 {
			t.Fatalf("client at v%d: server replied %q to a refused version", v, sToC.Bytes())
		}

		var reply bytes.Buffer
		reply.WriteString(Magic)
		reply.WriteByte(v)
		client := NewConn(duplex{r: &reply, w: &bytes.Buffer{}})
		if err := client.ClientHandshake(); !errors.Is(err, ErrProtocol) {
			t.Fatalf("server at v%d: client got %v, want ErrProtocol", v, err)
		}
	}
}

func TestHandshakeRejectsBadMagicAndTruncation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes string
	}{
		{"bad magic", "NOPE\x01"},
		{"truncated", Magic[:2]},
	} {
		c := NewConn(duplex{r: bytes.NewBufferString(tc.bytes), w: &bytes.Buffer{}})
		err := c.ServerHandshake()
		if err == nil {
			t.Fatalf("%s: handshake accepted", tc.name)
		}
		if tc.name == "truncated" {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: got %v, want ErrTruncated", tc.name, err)
			}
		} else if !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: got %v, want ErrProtocol", tc.name, err)
		}
	}
}

// frameStream encodes a representative sequence of frames and returns the
// raw bytes plus the expected (type, payload) pairs.
func frameStream(t *testing.T) ([]byte, []byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(duplex{r: &bytes.Buffer{}, w: &buf})
	types := []byte{MsgHello, MsgBatch, MsgProfile, MsgGoodbye, MsgError, MsgEpoch}
	payloads := [][]byte{
		AppendHello(nil, Hello{Config: testConfig(), Shards: 4}),
		AppendBatch(nil, []event.Tuple{{A: 1, B: 2}, {A: 100, B: 3}, {A: 7, B: 7}}),
		AppendProfile(nil, ProfileMsg{Index: 3, Shed: 17, Counts: map[event.Tuple]uint64{{A: 9, B: 1}: 4}}),
		nil,
		AppendError(nil, ErrorMsg{Code: CodeInternal, Msg: "boom"}),
		AppendEpoch(nil, EpochMsg{Source: "agg-root", Epoch: 9, Partial: true, Children: 3,
			Missing: []string{"leaf-2"}, Counts: map[event.Tuple]uint64{{A: 4, B: 4}: 12}}),
	}
	for i, typ := range types {
		if err := c.WriteFrame(typ, payloads[i]); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	return buf.Bytes(), types, payloads
}

func testConfig() core.Config {
	return core.Config{
		IntervalLength:     10_000,
		ThresholdPercent:   0.5,
		TotalEntries:       2048,
		NumTables:          4,
		CounterWidth:       24,
		ConservativeUpdate: true,
		Retain:             true,
		Seed:               42,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	raw, types, payloads := frameStream(t)
	c := NewConn(duplex{r: bytes.NewBuffer(raw), w: &bytes.Buffer{}})
	for i := range types {
		typ, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if typ != types[i] {
			t.Fatalf("frame %d: type %d, want %d", i, typ, types[i])
		}
		want := payloads[i]
		if want == nil {
			want = []byte{}
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := c.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestFrameTruncation cuts the stream at every byte position: the reader
// must deliver some prefix of the original frames and then fail with
// ErrTruncated — or io.EOF exactly when the cut lands on a frame boundary.
func TestFrameTruncation(t *testing.T) {
	raw, types, _ := frameStream(t)

	// Record the clean frame boundaries.
	boundaries := map[int]bool{0: true}
	{
		r := bytes.NewBuffer(raw)
		c := NewConn(duplex{r: r, w: &bytes.Buffer{}})
		for range types {
			if _, _, err := c.ReadFrame(); err != nil {
				t.Fatal(err)
			}
			boundaries[len(raw)-r.Len()-c.r.Buffered()] = true
		}
	}

	for cut := 0; cut < len(raw); cut++ {
		c := NewConn(duplex{r: bytes.NewBuffer(raw[:cut]), w: &bytes.Buffer{}})
		frames := 0
		var err error
		for {
			_, _, err = c.ReadFrame()
			if err != nil {
				break
			}
			frames++
			if frames > len(types) {
				t.Fatalf("cut %d: more frames than were written", cut)
			}
		}
		if err == io.EOF {
			if !boundaries[cut] {
				t.Fatalf("cut %d: clean EOF off a frame boundary after %d frames", cut, frames)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: %v, want ErrTruncated or clean io.EOF", cut, err)
		}
	}
}

// TestFrameCorruption flips one byte at every position: the reader must
// never deliver the original frame sequence unchanged, and any failure must
// be a classified sentinel.
func TestFrameCorruption(t *testing.T) {
	raw, types, payloads := frameStream(t)
	for pos := 0; pos < len(raw); pos++ {
		mut := bytes.Clone(raw)
		mut[pos] ^= 0xff
		c := NewConn(duplex{r: bytes.NewBuffer(mut), w: &bytes.Buffer{}})
		intact := true
		for i := 0; ; i++ {
			typ, payload, err := c.ReadFrame()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("pos %d: unclassified error %v", pos, err)
				}
				intact = intact && err == io.EOF && i == len(types)
				break
			}
			want := payloads[i]
			if want == nil {
				want = []byte{}
			}
			intact = intact && i < len(types) && typ == types[i] && bytes.Equal(payload, want)
		}
		if intact {
			t.Fatalf("pos %d: corrupted stream read back identical", pos)
		}
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(MsgBatch)
	// A length prefix beyond MaxPayload must be rejected before allocating.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	c := NewConn(duplex{r: &buf, w: &bytes.Buffer{}})
	if _, _, err := c.ReadFrame(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	cases := []Hello{
		{Config: testConfig(), Shards: 4},
		{Config: core.Config{
			IntervalLength:   1,
			ThresholdPercent: 100,
			TotalEntries:     1,
			NumTables:        1,
			CounterWidth:     1,
			ResetOnPromote:   true,
			NoShield:         true,
			WeakHash:         true,
			AccumCapacity:    123,
			Seed:             math.MaxUint64,
		}},
		{Config: core.Config{ThresholdPercent: math.Inf(1)}, Shards: 1 << 20},
		{Config: testConfig(), Shards: 2, Marked: true},
	}
	for i, h := range cases {
		got, err := DecodeHello(AppendHello(nil, h))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != h {
			t.Fatalf("case %d: %+v != %+v", i, got, h)
		}
	}
}

// TestHelloBytesStable pins the Hello encoding byte for byte: journals
// on disk store a session's Hello in this shape, so a drift would make
// every existing journal unrecoverable.
func TestHelloBytesStable(t *testing.T) {
	h := Hello{Config: testConfig(), Shards: 2, Marked: true}
	const want = "904e000000000000e03f8010041805002a000000000000000201"
	if got := hex.EncodeToString(AppendHello(nil, h)); got != want {
		t.Fatalf("hello encodes as %s, want %s", got, want)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, a := range []HelloAck{
		{},
		{SessionID: 99, Shed: true, QueueDepth: 16},
		{SessionID: 7, Resume: true, QueueDepth: 8},
		{SessionID: 8, Shed: true, Resume: true, QueueDepth: 4},
	} {
		got, err := DecodeHelloAck(AppendHelloAck(nil, a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("%+v != %+v", got, a)
		}
	}
}

func TestResumeRoundTrip(t *testing.T) {
	for _, r := range []Resume{{}, {SessionID: 42, Intervals: 7, Floor: 71_234}} {
		got, err := DecodeResume(AppendResume(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Fatalf("%+v != %+v", got, r)
		}
	}
}

func TestResumeAckRoundTrip(t *testing.T) {
	for _, a := range []ResumeAck{
		{},
		{Intervals: 3, Offset: 999, StreamPos: 30_999, Shed: 17,
			IntervalLength: 20_000, TotalEntries: 1024, NumTables: 4, Shards: 2},
	} {
		got, err := DecodeResumeAck(AppendResumeAck(nil, a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("%+v != %+v", got, a)
		}
	}
}

func TestNoticeRoundTrip(t *testing.T) {
	for _, n := range []Notice{
		{Kind: NoticePark, Rung: 4, Index: 9, Observed: 90_000, Shed: 123,
			IntervalLength: 10_000, TotalEntries: 2048, NumTables: 4, Shards: 1, Reason: "queue 16/16"},
		{Kind: NoticeResize, IntervalLength: 5_000, TotalEntries: 2048, NumTables: 4, Shards: 2},
		{},
	} {
		got, err := DecodeNotice(AppendNotice(nil, n))
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("%+v != %+v", got, n)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	batches := [][]event.Tuple{
		nil,
		{{A: 0, B: 0}},
		{{A: math.MaxUint64, B: 1}, {A: 0, B: math.MaxUint64}},
	}
	long := make([]event.Tuple, 1000)
	for i := range long {
		long[i] = event.Tuple{A: rng.Uint64() >> (i % 48), B: rng.Uint64() >> (i % 48)}
	}
	batches = append(batches, long)
	for i, b := range batches {
		got, err := DecodeBatch(AppendBatch(nil, b), nil)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(got) != len(b) {
			t.Fatalf("batch %d: %d tuples, want %d", i, len(got), len(b))
		}
		for j := range b {
			if got[j] != b[j] {
				t.Fatalf("batch %d tuple %d: %v != %v", i, j, got[j], b[j])
			}
		}
	}
}

func TestDecodeBatchReusesBuffer(t *testing.T) {
	buf := make([]event.Tuple, 0, 64)
	p := AppendBatch(nil, []event.Tuple{{A: 5, B: 6}})
	got, err := DecodeBatch(p, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Fatal("buffer with capacity was not reused")
	}
}

func TestDecodeBatchRejectsOverlongCount(t *testing.T) {
	// A count the payload cannot possibly hold must fail fast, not allocate.
	p := []byte{0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeBatch(p, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	big := make(map[event.Tuple]uint64, 500)
	for i := 0; i < 500; i++ {
		big[event.Tuple{A: rng.Uint64() % 1000, B: rng.Uint64() % 10}] = rng.Uint64() % 100_000
	}
	cases := []ProfileMsg{
		{Counts: map[event.Tuple]uint64{}},
		{Index: 7, Shed: 123, Final: true, Counts: map[event.Tuple]uint64{{A: 1, B: 2}: 3}},
		{Index: 1 << 40, Counts: big},
	}
	for i, m := range cases {
		got, err := DecodeProfile(AppendProfile(nil, m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Index != m.Index || got.Shed != m.Shed || got.Final != m.Final {
			t.Fatalf("case %d: header %+v != %+v", i, got, m)
		}
		if !reflect.DeepEqual(got.Counts, m.Counts) {
			t.Fatalf("case %d: counts mismatch", i)
		}
	}
}

func TestAppendProfileIsDeterministic(t *testing.T) {
	m := ProfileMsg{Counts: map[event.Tuple]uint64{}}
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		m.Counts[event.Tuple{A: rng.Uint64(), B: rng.Uint64()}] = rng.Uint64()
	}
	first := AppendProfile(nil, m)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(AppendProfile(nil, m), first) {
			t.Fatal("same profile encoded differently across calls")
		}
	}
}

func TestDecodeProfileRejectsDuplicateTuple(t *testing.T) {
	p := []byte{0}                       // flags
	p = append(p, 0, 0, 2)               // index, shed, 2 entries
	p = append(p, 2, 2, 1 /* {1,1}:_ */) // zigzag(1)=2
	p = append(p, 0, 0, 1 /* {1,1} dup */)
	if _, err := DecodeProfile(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	for _, s := range []Subscribe{{}, {Start: 1 << 33}} {
		got, err := DecodeSubscribe(AppendSubscribe(nil, s))
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("%+v != %+v", got, s)
		}
	}
}

func TestSubscribeAckRoundTrip(t *testing.T) {
	for _, a := range []SubscribeAck{
		{},
		{Source: "leaf-1", EpochLength: 10_000, First: 12, Window: 64},
	} {
		got, err := DecodeSubscribeAck(AppendSubscribeAck(nil, a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("%+v != %+v", got, a)
		}
	}
	// Oversized source names are truncated to the wire bound, not rejected.
	long := SubscribeAck{Source: strings.Repeat("n", 2*maxName)}
	got, err := DecodeSubscribeAck(AppendSubscribeAck(nil, long))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Source) != maxName {
		t.Fatalf("source truncated to %d, want %d", len(got.Source), maxName)
	}
}

func TestEpochRoundTrip(t *testing.T) {
	rng := xrand.New(13)
	big := make(map[event.Tuple]uint64, 300)
	for i := 0; i < 300; i++ {
		big[event.Tuple{A: rng.Uint64() % 500, B: rng.Uint64() % 8}] = rng.Uint64() % 1_000_000
	}
	cases := []EpochMsg{
		{Source: "d1", Counts: map[event.Tuple]uint64{}},
		{Source: "agg-west", Epoch: 41, Children: 12, Counts: big},
		{Source: "agg-root", Epoch: 7, Partial: true, Children: 2,
			Missing: []string{"127.0.0.1:9001", "leaf-3/s12"},
			Counts:  map[event.Tuple]uint64{{A: 1, B: 1}: 2}},
	}
	for i, m := range cases {
		got, err := DecodeEpoch(AppendEpoch(nil, m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Source != m.Source || got.Epoch != m.Epoch || got.Partial != m.Partial || got.Children != m.Children {
			t.Fatalf("case %d: header %+v != %+v", i, got, m)
		}
		if !reflect.DeepEqual(got.Missing, m.Missing) {
			t.Fatalf("case %d: missing %v != %v", i, got.Missing, m.Missing)
		}
		if !reflect.DeepEqual(got.Counts, m.Counts) {
			t.Fatalf("case %d: counts mismatch", i)
		}
	}
}

func TestAppendEpochIsDeterministic(t *testing.T) {
	m := EpochMsg{Source: "root", Epoch: 3, Counts: map[event.Tuple]uint64{}}
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		m.Counts[event.Tuple{A: rng.Uint64(), B: rng.Uint64()}] = rng.Uint64()
	}
	first := AppendEpoch(nil, m)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(AppendEpoch(nil, m), first) {
			t.Fatal("same epoch encoded differently across calls")
		}
	}
}

func TestMarkRoundTrip(t *testing.T) {
	for _, m := range []Mark{{}, {Index: 1 << 40}} {
		got, err := DecodeMark(AppendMark(nil, m))
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("%+v != %+v", got, m)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	for _, e := range []ErrorMsg{{}, {Code: CodeOverload, Msg: "full"}} {
		got, err := DecodeError(AppendError(nil, e))
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatalf("%+v != %+v", got, e)
		}
	}
	// Oversized messages are truncated, not rejected.
	long := ErrorMsg{Code: CodeInternal, Msg: strings.Repeat("x", 2*maxErrorMsg)}
	got, err := DecodeError(AppendError(nil, long))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Msg) != maxErrorMsg {
		t.Fatalf("message truncated to %d, want %d", len(got.Msg), maxErrorMsg)
	}
}

// TestDecodersRejectPrefixesAndTrailingGarbage runs every message decoder
// over every strict prefix of a valid payload (must fail: the payload ends
// early) and over the payload plus a trailing byte (must fail: trailing
// garbage), mirroring the trace reader's truncation discipline.
func TestDecodersRejectPrefixesAndTrailingGarbage(t *testing.T) {
	msgs := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"hello", AppendHello(nil, Hello{Config: testConfig(), Shards: 3, Marked: true}),
			func(p []byte) error { _, err := DecodeHello(p); return err }},
		{"hello-ack", AppendHelloAck(nil, HelloAck{SessionID: 5, Shed: true, QueueDepth: 8}),
			func(p []byte) error { _, err := DecodeHelloAck(p); return err }},
		{"batch", AppendBatch(nil, []event.Tuple{{A: 300, B: 2}, {A: 1, B: 900}}),
			func(p []byte) error { _, err := DecodeBatch(p, nil); return err }},
		{"profile", AppendProfile(nil, ProfileMsg{Index: 2, Counts: map[event.Tuple]uint64{{A: 300, B: 1}: 400, {A: 301, B: 2}: 1}}),
			func(p []byte) error { _, err := DecodeProfile(p); return err }},
		{"error", AppendError(nil, ErrorMsg{Code: CodeConfig, Msg: "bad config"}),
			func(p []byte) error { _, err := DecodeError(p); return err }},
		{"resume", AppendResume(nil, Resume{SessionID: 300, Intervals: 4, Floor: 40_150}),
			func(p []byte) error { _, err := DecodeResume(p); return err }},
		{"resume-ack", AppendResumeAck(nil, ResumeAck{Intervals: 5, Offset: 600, StreamPos: 50_600, Shed: 3,
			IntervalLength: 10_000, TotalEntries: 2048, NumTables: 4, Shards: 2}),
			func(p []byte) error { _, err := DecodeResumeAck(p); return err }},
		{"notice", AppendNotice(nil, Notice{Kind: NoticeDegrade, Rung: 3, Index: 7, Observed: 70_000, Shed: 2,
			IntervalLength: 40_000, TotalEntries: 512, NumTables: 4, Shards: 1, Reason: "shed 0.31 >= 0.25"}),
			func(p []byte) error { _, err := DecodeNotice(p); return err }},
		{"subscribe", AppendSubscribe(nil, Subscribe{Start: 17}),
			func(p []byte) error { _, err := DecodeSubscribe(p); return err }},
		{"subscribe-ack", AppendSubscribeAck(nil, SubscribeAck{Source: "leaf-1", EpochLength: 10_000, First: 3, Window: 64}),
			func(p []byte) error { _, err := DecodeSubscribeAck(p); return err }},
		{"epoch", AppendEpoch(nil, EpochMsg{Source: "agg", Epoch: 5, Partial: true, Children: 4,
			Missing: []string{"a", "b"}, Counts: map[event.Tuple]uint64{{A: 300, B: 1}: 400, {A: 301, B: 2}: 1}}),
			func(p []byte) error { _, err := DecodeEpoch(p); return err }},
		{"mark", AppendMark(nil, Mark{Index: 12}),
			func(p []byte) error { _, err := DecodeMark(p); return err }},
	}
	for _, m := range msgs {
		if err := m.decode(m.payload); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", m.name, err)
		}
		for cut := 0; cut < len(m.payload); cut++ {
			if err := m.decode(m.payload[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at %d/%d: got %v, want ErrCorrupt", m.name, cut, len(m.payload), err)
			}
		}
		if err := m.decode(append(bytes.Clone(m.payload), 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s with trailing byte: got %v, want ErrCorrupt", m.name, err)
		}
	}
}
