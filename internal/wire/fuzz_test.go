package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"hwprof/internal/event"
)

// FuzzWire feeds arbitrary bytes to the frame reader and the message
// decoders: whatever the bytes, the reader must classify every failure as a
// sentinel (never panic, never mis-allocate), and any frame it does accept
// must decode deterministically.
func FuzzWire(f *testing.F) {
	// Seed with a valid frame stream so mutations explore near-misses.
	var buf bytes.Buffer
	c := NewConn(duplex{r: &bytes.Buffer{}, w: &buf})
	c.WriteFrame(MsgHello, AppendHello(nil, Hello{Config: testConfig(), Shards: 2, Marked: true}))
	c.WriteFrame(MsgBatch, AppendBatch(nil, []event.Tuple{{A: 1, B: 2}, {A: 5, B: 5}}))
	c.WriteFrame(MsgProfile, AppendProfile(nil, ProfileMsg{Index: 1, Counts: map[event.Tuple]uint64{{A: 3, B: 4}: 9}}))
	c.WriteFrame(MsgDrain, nil)
	c.WriteFrame(MsgError, AppendError(nil, ErrorMsg{Code: CodeProtocol, Msg: "x"}))
	c.WriteFrame(MsgResume, AppendResume(nil, Resume{SessionID: 7, Intervals: 2, Floor: 20_040}))
	c.WriteFrame(MsgResumeAck, AppendResumeAck(nil, ResumeAck{Intervals: 2, Offset: 40, StreamPos: 20_040, Shed: 1,
		IntervalLength: 10_000, TotalEntries: 2048, NumTables: 4, Shards: 2}))
	c.WriteFrame(MsgNotice, AppendNotice(nil, Notice{Kind: NoticeResize, Rung: 2, Index: 3, Observed: 40_000,
		Shed: 7, IntervalLength: 20_000, TotalEntries: 1024, NumTables: 4, Shards: 2, Reason: "pressure 0.9 >= 0.75"}))
	c.WriteFrame(MsgSubscribe, AppendSubscribe(nil, Subscribe{Start: 3}))
	c.WriteFrame(MsgSubscribeAck, AppendSubscribeAck(nil, SubscribeAck{Source: "leaf", EpochLength: 10_000, First: 3, Window: 64}))
	c.WriteFrame(MsgEpoch, AppendEpoch(nil, EpochMsg{Source: "agg", Epoch: 3, Partial: true, Children: 2,
		Missing: []string{"leaf-2"}, Counts: map[event.Tuple]uint64{{A: 3, B: 4}: 9}}))
	c.WriteFrame(MsgMark, AppendMark(nil, Mark{Index: 4}))
	f.Add(buf.Bytes())
	f.Add(append([]byte(Magic), Version))
	f.Add([]byte{MsgBatch, 0x02, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(duplex{r: bytes.NewBuffer(data), w: &bytes.Buffer{}})
		for frames := 0; frames <= len(data); frames++ {
			typ, payload, err := c.ReadFrame()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified frame error: %v", err)
				}
				return
			}
			// An accepted frame's payload must decode — or fail — the same
			// way twice, and decode failures must be classified.
			var err1, err2 error
			switch typ {
			case MsgHello:
				var h1, h2 Hello
				h1, err1 = DecodeHello(payload)
				h2, err2 = DecodeHello(payload)
				if err1 == nil && h1 != h2 {
					t.Fatal("hello decoded differently twice")
				}
			case MsgHelloAck:
				_, err1 = DecodeHelloAck(payload)
				_, err2 = DecodeHelloAck(payload)
			case MsgBatch:
				var b1, b2 []event.Tuple
				b1, err1 = DecodeBatch(payload, nil)
				b2, err2 = DecodeBatch(payload, nil)
				if err1 == nil {
					if len(b1) != len(b2) {
						t.Fatal("batch decoded differently twice")
					}
					for i := range b1 {
						if b1[i] != b2[i] {
							t.Fatal("batch decoded differently twice")
						}
					}
				}
			case MsgProfile:
				var m1 ProfileMsg
				m1, err1 = DecodeProfile(payload)
				_, err2 = DecodeProfile(payload)
				if err1 == nil {
					// Decoded profiles re-encode canonically: encode → decode
					// → encode must be a fixed point (sorted, delta-coded).
					enc := AppendProfile(nil, m1)
					if !bytes.Equal(AppendProfile(nil, m1), enc) {
						t.Fatal("profile re-encoding is not deterministic")
					}
				}
			case MsgError:
				_, err1 = DecodeError(payload)
				_, err2 = DecodeError(payload)
			case MsgResume:
				var r1, r2 Resume
				r1, err1 = DecodeResume(payload)
				r2, err2 = DecodeResume(payload)
				if err1 == nil && r1 != r2 {
					t.Fatal("resume decoded differently twice")
				}
			case MsgResumeAck:
				var a1, a2 ResumeAck
				a1, err1 = DecodeResumeAck(payload)
				a2, err2 = DecodeResumeAck(payload)
				if err1 == nil && a1 != a2 {
					t.Fatal("resume-ack decoded differently twice")
				}
			case MsgNotice:
				var n1, n2 Notice
				n1, err1 = DecodeNotice(payload)
				n2, err2 = DecodeNotice(payload)
				if err1 == nil && n1 != n2 {
					t.Fatal("notice decoded differently twice")
				}
			case MsgSubscribe:
				var s1, s2 Subscribe
				s1, err1 = DecodeSubscribe(payload)
				s2, err2 = DecodeSubscribe(payload)
				if err1 == nil && s1 != s2 {
					t.Fatal("subscribe decoded differently twice")
				}
			case MsgSubscribeAck:
				var a1, a2 SubscribeAck
				a1, err1 = DecodeSubscribeAck(payload)
				a2, err2 = DecodeSubscribeAck(payload)
				if err1 == nil && a1 != a2 {
					t.Fatal("subscribe-ack decoded differently twice")
				}
			case MsgEpoch:
				var e1 EpochMsg
				e1, err1 = DecodeEpoch(payload)
				_, err2 = DecodeEpoch(payload)
				if err1 == nil {
					// Decoded epochs re-encode canonically, like profiles.
					enc := AppendEpoch(nil, e1)
					if !bytes.Equal(AppendEpoch(nil, e1), enc) {
						t.Fatal("epoch re-encoding is not deterministic")
					}
				}
			case MsgMark:
				var m1, m2 Mark
				m1, err1 = DecodeMark(payload)
				m2, err2 = DecodeMark(payload)
				if err1 == nil && m1 != m2 {
					t.Fatal("mark decoded differently twice")
				}
			}
			for _, err := range []error{err1, err2} {
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified decode error: %v", err)
				}
			}
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("decode verdict flipped between calls: %v vs %v", err1, err2)
			}
		}
	})
}
