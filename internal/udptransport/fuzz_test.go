package udptransport

// Fuzzers for the control path's hand-rolled binary decoders — the ACK
// and reliable-envelope headers of the ARQ layer, each asserting its
// invariants and round-tripping whatever decodes cleanly — and for the
// ARQ receiver that reassembles messages from the envelopes.

import (
	"bytes"
	"net"
	"testing"
	"time"
)

func FuzzDecodeAck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 0, 3})
	f.Add(encodeAck(0xFFFFFFFF, 0xFFFF, 0xFFFFFFFF)[1:])
	f.Fuzz(func(t *testing.T, body []byte) {
		xfer, cum, bitmap, err := decodeAck(body)
		if err != nil {
			return
		}
		if len(body) != ackBodyLen {
			t.Fatalf("accepted %d-byte ack body", len(body))
		}
		back := encodeAck(xfer, cum, bitmap)
		if back[0] != MsgAck || !bytes.Equal(back[1:], body) {
			t.Fatalf("ack round trip: %x -> %x", body, back)
		}
	})
}

func FuzzDecodeRel(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRel(7, 0, 1, []byte("inner"))[1:])
	f.Add(encodeRel(0, 41, 42, nil)[1:])
	f.Fuzz(func(t *testing.T, body []byte) {
		xfer, seq, total, inner, err := decodeRel(body)
		if err != nil {
			return
		}
		if total == 0 || seq >= total {
			t.Fatalf("accepted envelope with seq %d / total %d", seq, total)
		}
		back := encodeRel(xfer, seq, total, inner)
		if back[0] != MsgRel || !bytes.Equal(back[1:], body) {
			t.Fatalf("envelope round trip: %x -> %x", body, back)
		}
	})
}

// FuzzARQReceive feeds arbitrary MsgRel bodies through one receiver's
// handleRel. data is a sequence of length-prefixed bodies (one length
// byte each; the first 64 are used); with reseal set, each body's CRC-32C trailer is recomputed
// first so mutations reach the logic behind the checksum. The receiver
// must never panic, and must deliver exactly the transfers a reference
// model completes: every segment of one total within the role bound,
// first copy of each seq winning, concatenated in seq order, once.
func FuzzARQReceive(f *testing.F) {
	frame := func(bodies ...[]byte) []byte {
		var data []byte
		for _, b := range bodies {
			data = append(data, byte(len(b)))
			data = append(data, b...)
		}
		return data
	}
	rel := func(xfer uint32, seq, total uint16, seg string) []byte {
		return encodeRel(xfer, seq, total, []byte(seg))[1:]
	}
	f.Add(frame(rel(1, 0, 1, "request")), true, false)
	f.Add(frame(rel(1, 1, 2, "b"), rel(1, 0, 2, "a"), rel(1, 1, 2, "b")), false, false)
	f.Add(frame(rel(7, 0, 3, "x"), rel(7, 1, 4, "y"), rel(7, 0, 3, "X"), rel(7, 2, 3, "z"), rel(7, 1, 3, "y")), false, true)
	f.Add(frame(rel(2, 0, 2, "a"), rel(2, 1, 2, "b")), true, true)
	f.Fuzz(func(t *testing.T, data []byte, server, reseal bool) {
		bound := linkRecvSegments
		if server {
			bound = serverRecvSegments
		}
		cfg := RetransmitConfig{AckDelay: time.Hour} // no timer fires mid-run
		a := newARQ(cfg, bound, func(*net.UDPAddr, []byte) error { return nil }, nil)
		defer a.close()

		type transfer struct {
			segs [][]byte
			n    int
		}
		model := map[uint32]*transfer{}
		var got, want []string
		data = bytes.Clone(data) // resealing writes to it
		// At most 64 bodies: fewer completed transfers than the done-ring
		// remembers, so the model need not track its eviction.
		for i := 0; i < 64 && len(data) > 0; i++ {
			n := min(int(data[0]), len(data)-1)
			body := data[1 : 1+n]
			data = data[1+n:]
			if reseal && len(body) >= crcLen {
				d := append([]byte{MsgRel}, body...)
				sealCRC(d)
				copy(body, d[1:])
			}
			a.handleRel("p", nil, body, func(msg []byte) bool {
				if len(msg) > bound*SegmentPayload {
					t.Fatalf("delivered %d bytes past the role bound", len(msg))
				}
				got = append(got, string(msg))
				return true
			})
			xfer, seq, total, seg, err := decodeRel(body)
			if err != nil || int(total) > bound {
				continue
			}
			m := model[xfer]
			if m == nil {
				m = &transfer{segs: make([][]byte, total)}
				model[xfer] = m
			}
			if m.n == len(m.segs) || len(m.segs) != int(total) || m.segs[seq] != nil {
				continue // done, inconsistent total, or duplicate
			}
			m.segs[seq] = bytes.Clone(seg)
			if m.n++; m.n == len(m.segs) {
				want = append(want, string(bytes.Join(m.segs, nil)))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d messages, model completed %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("message %d = %q, model %q", i, got[i], want[i])
			}
		}
	})
}
