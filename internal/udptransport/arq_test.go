package udptransport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"endbox/internal/netsim"
)

// fastARQ is the tuning the unit tests run with: real timers, but fast.
func fastARQ() RetransmitConfig {
	return RetransmitConfig{
		Timeout:    20 * time.Millisecond,
		Backoff:    1.5,
		MaxRetries: 8,
		AckDelay:   10 * time.Millisecond,
		Window:     8,
	}
}

func TestRelEnvelopeRoundTrip(t *testing.T) {
	inner := Encode(MsgFetch, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	seg := encodeRel(0xDEADBEEF, 3, 9, inner)
	msgType, body, err := Decode(seg)
	if err != nil || msgType != MsgRel {
		t.Fatalf("type %c err %v", msgType, err)
	}
	xfer, seq, total, got, err := decodeRel(body)
	if err != nil {
		t.Fatal(err)
	}
	if xfer != 0xDEADBEEF || seq != 3 || total != 9 || !bytes.Equal(got, inner) {
		t.Errorf("round trip: xfer=%x seq=%d total=%d inner=%x", xfer, seq, total, got)
	}
}

func TestRelEnvelopeErrors(t *testing.T) {
	if _, _, _, _, err := decodeRel([]byte{1, 2, 3}); err == nil {
		t.Error("short envelope accepted")
	}
	// total == 0
	if _, _, _, _, err := decodeRel([]byte{0, 0, 0, 1, 0, 0, 0, 0}); err == nil {
		t.Error("zero total accepted")
	}
	// seq >= total
	if _, _, _, _, err := decodeRel([]byte{0, 0, 0, 1, 0, 5, 0, 5}); err == nil {
		t.Error("seq >= total accepted")
	}
}

func TestAckRoundTrip(t *testing.T) {
	ack := encodeAck(7, 12, 0b1010)
	msgType, body, err := Decode(ack)
	if err != nil || msgType != MsgAck {
		t.Fatalf("type %c err %v", msgType, err)
	}
	xfer, cum, bitmap, err := decodeAck(body)
	if err != nil {
		t.Fatal(err)
	}
	if xfer != 7 || cum != 12 || bitmap != 0b1010 {
		t.Errorf("round trip: %d %d %b", xfer, cum, bitmap)
	}
	if _, _, _, err := decodeAck([]byte{1, 2}); err == nil {
		t.Error("short ack accepted")
	}
	if _, _, _, err := decodeAck(make([]byte, ackBodyLen+1)); err == nil {
		t.Error("long ack accepted")
	}
}

// arqPair wires two ARQ endpoints together through goroutine delivery and
// an optional fault filter per direction, mimicking two sockets.
type arqPair struct {
	a, b         *arq
	aRecv, bRecv func(datagram []byte) // dispatch into the receiving side
	wg           sync.WaitGroup
}

// newARQPair builds endpoints a and b, both with the client link's
// receive bound. deliverA/deliverB receive the whole messages accepted by
// the respective endpoint; aFilter/bFilter impair
// the corresponding endpoint's sends (nil = perfect wire).
func newARQPair(cfg RetransmitConfig, aFilter, bFilter SendFilter, deliverA, deliverB func([]byte) bool) *arqPair {
	p := &arqPair{}
	mkTransmit := func(filter SendFilter, to *func(datagram []byte)) func(d []byte) error {
		raw := func(d []byte) error {
			c := append([]byte(nil), d...)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				(*to)(c)
			}()
			return nil
		}
		if filter == nil {
			return raw
		}
		return func(d []byte) error { return filter(d, raw) }
	}
	aTx := mkTransmit(aFilter, &p.bRecv)
	bTx := mkTransmit(bFilter, &p.aRecv)
	p.a = newARQ(cfg, linkRecvSegments, func(_ *net.UDPAddr, d []byte) error { return aTx(d) }, nil)
	p.b = newARQ(cfg, linkRecvSegments, func(_ *net.UDPAddr, d []byte) error { return bTx(d) }, nil)
	p.aRecv = func(datagram []byte) {
		msgType, body, err := Decode(datagram)
		if err != nil {
			return
		}
		switch msgType {
		case MsgRel:
			p.a.handleRel("peer", nil, body, deliverA)
		case MsgAck:
			p.a.handleAck("peer", body)
		}
	}
	p.bRecv = func(datagram []byte) {
		msgType, body, err := Decode(datagram)
		if err != nil {
			return
		}
		switch msgType {
		case MsgRel:
			p.b.handleRel("peer", nil, body, deliverB)
		case MsgAck:
			p.b.handleAck("peer", body)
		}
	}
	return p
}

func (p *arqPair) close() {
	p.a.close()
	p.b.close()
	p.wg.Wait()
}

// testMessage builds an n-byte message whose bytes depend on their
// offset, so a segment delivered out of place cannot go unnoticed.
func testMessage(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*31 + i>>16)
	}
	return msg
}

// sendAndWait sends msg from a to b and waits until the transfer is fully
// acknowledged, failing the test if it exhausts its budget or stalls.
func (p *arqPair) sendAndWait(t *testing.T, msg []byte, within time.Duration) {
	t.Helper()
	x, err := p.a.send("peer", nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(within)
	for {
		if s, _ := p.a.active(); s == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transfer stuck: %+v", p.a.snapshot())
		}
		select {
		case err := <-x.failed:
			t.Fatalf("transfer failed: %v (stats %+v)", err, p.a.snapshot())
		case <-time.After(5 * time.Millisecond):
		}
	}
	select {
	case err := <-x.failed:
		t.Fatalf("transfer failed: %v", err)
	default:
	}
}

// recorder collects the messages an ARQ endpoint delivers.
type recorder struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (r *recorder) deliver(msg []byte) bool {
	r.mu.Lock()
	r.msgs = append(r.msgs, bytes.Clone(msg))
	r.mu.Unlock()
	return true
}

// only returns the single delivered message, failing the test unless
// exactly one was delivered.
func (r *recorder) only(t *testing.T) []byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.msgs) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1", len(r.msgs))
	}
	return r.msgs[0]
}

func TestARQTransferPerfectWire(t *testing.T) {
	// A perfect wire loses nothing, so no timer may fire. The RTO is long
	// enough that a window of 64 kB segments, copied and checksummed under
	// the race detector on a loaded host, cannot outlast it.
	cfg := fastARQ()
	cfg.Timeout = 2 * time.Second
	var got recorder
	pair := newARQPair(cfg, nil, nil, func([]byte) bool { return true }, got.deliver)
	defer pair.close()

	msg := testMessage(20 * SegmentPayload) // 20 segments > window of 8: exercises window advance
	pair.sendAndWait(t, msg, 10*time.Second)
	if !bytes.Equal(got.only(t), msg) {
		t.Fatal("delivered message differs from the one sent")
	}
	if st := pair.a.snapshot(); st.TransfersDone != 1 || st.SegmentsSent != 20 || st.Retransmits != 0 {
		t.Errorf("stats on a perfect wire: %+v", st)
	}
}

func TestARQTransferSurvivesLoss(t *testing.T) {
	// 100 segments through 20% drop + 5% duplication + 5% reorder in both
	// directions: the selective-repeat machinery must deliver the message
	// exactly once, byte-identical, within the retry budget.
	var got recorder
	lossA := netsim.NewFaults(1, 0.20, 0.05, 0.05)
	lossB := netsim.NewFaults(2, 0.20, 0.05, 0.05)
	pair := newARQPair(fastARQ(), lossA.Filter, lossB.Filter, func([]byte) bool { return true }, got.deliver)
	defer pair.close()

	msg := testMessage(99*SegmentPayload + 17)
	pair.sendAndWait(t, msg, 20*time.Second)
	if !bytes.Equal(got.only(t), msg) {
		t.Fatal("delivered message differs from the one sent")
	}
	st := pair.a.snapshot()
	if st.SegmentsSent != 100 {
		t.Errorf("SegmentsSent = %d, want 100", st.SegmentsSent)
	}
	if st.Retransmits+st.FastRetransmit == 0 {
		t.Error("no retransmissions recorded at 20% loss")
	}
	t.Logf("sender stats at 20%% loss: %+v", st)
	t.Logf("receiver stats: %+v", pair.b.snapshot())
}

// TestARQMessageSizes round-trips messages at and around the segment
// boundaries: each arrives once, whole, in ceil(n/SegmentPayload)
// segments.
func TestARQMessageSizes(t *testing.T) {
	const p = SegmentPayload
	for _, n := range []int{1, p - 1, p, p + 1, 3*p + 17} {
		t.Run(fmt.Sprintf("bytes=%d", n), func(t *testing.T) {
			var got recorder
			pair := newARQPair(fastARQ(), nil, nil, func([]byte) bool { return true }, got.deliver)
			defer pair.close()
			msg := testMessage(n)
			pair.sendAndWait(t, msg, 10*time.Second)
			if !bytes.Equal(got.only(t), msg) {
				t.Fatal("delivered message differs from the one sent")
			}
			if want := uint64((n + p - 1) / p); pair.a.snapshot().SegmentsSent != want {
				t.Errorf("SegmentsSent = %d, want %d", pair.a.snapshot().SegmentsSent, want)
			}
		})
	}
}

func TestARQBudgetExhaustion(t *testing.T) {
	// A black-hole wire: the transfer must fail with ErrRetryBudget in
	// bounded time and leave no state behind.
	blackhole := func(d []byte, _ func([]byte) error) error { return nil }
	pair := newARQPair(fastARQ(), blackhole, nil,
		func([]byte) bool { return true },
		func([]byte) bool { return true })
	defer pair.close()

	x, err := pair.a.send("peer", nil, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-x.failed:
		if !errors.Is(err, ErrRetryBudget) {
			t.Fatalf("failure error = %v, want ErrRetryBudget", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("budget exhaustion never signalled")
	}
	if s, _ := pair.a.active(); s != 0 {
		t.Errorf("%d transfers still tracked after failure", s)
	}
	if st := pair.a.snapshot(); st.TransfersFail != 1 {
		t.Errorf("TransfersFail = %d, want 1", st.TransfersFail)
	}
}

func TestARQCancelStopsTimers(t *testing.T) {
	blackhole := func(d []byte, _ func([]byte) error) error { return nil }
	pair := newARQPair(fastARQ(), blackhole, nil,
		func([]byte) bool { return true },
		func([]byte) bool { return true })
	defer pair.close()

	x, err := pair.a.send("peer", nil, []byte("cancelled"))
	if err != nil {
		t.Fatal(err)
	}
	pair.a.cancel(x)
	pair.a.cancel(x) // idempotent
	if s, _ := pair.a.active(); s != 0 {
		t.Fatalf("%d transfers tracked after cancel", s)
	}
	// The stopped timer must not fire a late failure.
	select {
	case err := <-x.failed:
		t.Fatalf("cancelled transfer signalled failure: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestARQCloseFailsPending(t *testing.T) {
	blackhole := func(d []byte, _ func([]byte) error) error { return nil }
	pair := newARQPair(fastARQ(), blackhole, nil,
		func([]byte) bool { return true },
		func([]byte) bool { return true })

	x, err := pair.a.send("peer", nil, []byte("orphaned"))
	if err != nil {
		t.Fatal(err)
	}
	pair.a.close()
	select {
	case err := <-x.failed:
		if !errors.Is(err, ErrLinkClosed) {
			t.Fatalf("failure error = %v, want ErrLinkClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close never failed the pending transfer")
	}
	if _, err := pair.a.send("peer", nil, []byte("late")); !errors.Is(err, ErrLinkClosed) {
		t.Errorf("send after close: err = %v, want ErrLinkClosed", err)
	}
	pair.b.close()
	pair.wg.Wait()
}

func TestARQReceiverDedupes(t *testing.T) {
	cfg := fastARQ()
	var acks [][]byte
	var mu sync.Mutex
	a := newARQ(cfg, linkRecvSegments, func(_ *net.UDPAddr, d []byte) error {
		mu.Lock()
		acks = append(acks, append([]byte(nil), d...))
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	var got recorder
	seg := encodeRel(1, 0, 2, []byte("dup-me"))
	a.handleRel("p", nil, seg[1:], got.deliver)
	a.handleRel("p", nil, seg[1:], got.deliver)
	mu.Lock()
	if len(acks) != 2 {
		t.Fatalf("%d acks sent, want 2 (dup re-acked)", len(acks))
	}
	// Both acks advertise the hole at seq 1: cum=1, bitmap 0.
	for i, ack := range acks {
		xfer, cum, bitmap, err := decodeAck(ack[1:])
		if err != nil || xfer != 1 || cum != 1 || bitmap != 0 {
			t.Errorf("ack %d = xfer %d cum %d bitmap %b err %v", i, xfer, cum, bitmap, err)
		}
	}
	mu.Unlock()
	if st := a.snapshot(); st.DupSegments != 1 {
		t.Errorf("DupSegments = %d, want 1", st.DupSegments)
	}
	// The duplicate was stored once: completing the transfer delivers the
	// message once, whole.
	a.handleRel("p", nil, encodeRel(1, 1, 2, []byte("|tail"))[1:], got.deliver)
	if msg := got.only(t); string(msg) != "dup-me|tail" {
		t.Errorf("delivered %q, want %q", msg, "dup-me|tail")
	}
}

func TestARQCompletedTransferReAcked(t *testing.T) {
	cfg := fastARQ()
	var acks int
	var mu sync.Mutex
	a := newARQ(cfg, linkRecvSegments, func(_ *net.UDPAddr, d []byte) error {
		mu.Lock()
		acks++
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	delivered := 0
	deliver := func([]byte) bool { delivered++; return true }
	seg := encodeRel(9, 0, 1, []byte("once"))
	a.handleRel("p", nil, seg[1:], deliver)
	// Late retransmits of a completed transfer: re-acked, not re-delivered.
	a.handleRel("p", nil, seg[1:], deliver)
	a.handleRel("p", nil, seg[1:], deliver)
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	mu.Lock()
	defer mu.Unlock()
	if acks != 3 {
		t.Fatalf("%d acks, want 3", acks)
	}
	if _, r := a.active(); r != 0 {
		t.Errorf("%d receive states linger after completion", r)
	}
}

func TestARQRefusedDeliveryNotAcked(t *testing.T) {
	// A delivery the upper layer refuses (full queue) must not be marked
	// received: the ack keeps advertising the hole so the sender resends.
	cfg := fastARQ()
	var lastAck []byte
	var mu sync.Mutex
	a := newARQ(cfg, linkRecvSegments, func(_ *net.UDPAddr, d []byte) error {
		mu.Lock()
		lastAck = append([]byte(nil), d...)
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	refuse := true
	delivered := 0
	deliver := func([]byte) bool {
		if refuse {
			return false
		}
		delivered++
		return true
	}
	seg := encodeRel(4, 0, 1, []byte("try-again"))
	a.handleRel("p", nil, seg[1:], deliver)
	mu.Lock()
	if lastAck != nil {
		mu.Unlock()
		t.Fatal("refused delivery was acknowledged")
	}
	mu.Unlock()
	refuse = false
	a.handleRel("p", nil, seg[1:], deliver) // the retransmit
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	lastCum := func() uint16 {
		mu.Lock()
		defer mu.Unlock()
		if lastAck == nil {
			t.Fatal("accepted delivery not acknowledged")
		}
		_, cum, _, _ := decodeAck(lastAck[1:])
		return cum
	}
	if cum := lastCum(); cum != 1 {
		t.Errorf("final ack cum = %d, want 1", cum)
	}

	// In a multi-segment transfer only the completing segment is left
	// unacknowledged: the earlier one stays received.
	refuse = true
	delivered = 0
	a.handleRel("p", nil, encodeRel(5, 0, 2, []byte("a"))[1:], deliver)
	a.handleRel("p", nil, encodeRel(5, 1, 2, []byte("b"))[1:], deliver)
	if cum := lastCum(); cum != 1 {
		t.Errorf("ack after a refused completion: cum = %d, want 1", cum)
	}
	refuse = false
	a.handleRel("p", nil, encodeRel(5, 1, 2, []byte("b"))[1:], deliver) // the retransmit
	if delivered != 1 {
		t.Fatalf("multi-segment message delivered %d times, want 1", delivered)
	}
	if cum := lastCum(); cum != 2 {
		t.Errorf("final ack cum = %d, want 2", cum)
	}
}

// TestARQClaimWhileDelivering holds a message's delivery open while
// copies of its segments arrive: a copy of the completing segment must be
// dropped rather than deliver the message twice, and a copy of an earlier
// segment is re-acked without reporting the completing one, which is not
// acknowledged until the delivery is accepted.
func TestARQClaimWhileDelivering(t *testing.T) {
	var mu sync.Mutex
	var lastAck []byte
	a := newARQ(fastARQ(), linkRecvSegments, func(_ *net.UDPAddr, d []byte) error {
		mu.Lock()
		lastAck = bytes.Clone(d)
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()
	lastCum := func() uint16 {
		mu.Lock()
		defer mu.Unlock()
		_, cum, _, _ := decodeAck(lastAck[1:])
		return cum
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var delivered atomic.Int32
	deliver := func([]byte) bool {
		if delivered.Add(1) == 1 {
			close(entered)
			<-release
		}
		return true
	}
	first := encodeRel(1, 0, 2, []byte("a"))[1:]
	last := encodeRel(1, 1, 2, []byte("b"))[1:]
	a.handleRel("p", nil, first, deliver)
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.handleRel("p", nil, last, deliver)
	}()
	<-entered
	a.handleRel("p", nil, last, deliver)
	a.handleRel("p", nil, first, deliver)
	if cum := lastCum(); cum != 1 {
		t.Errorf("ack during delivery: cum = %d, want 1", cum)
	}
	close(release)
	<-done
	if n := delivered.Load(); n != 1 {
		t.Fatalf("message delivered %d times, want 1", n)
	}
	if cum := lastCum(); cum != 2 {
		t.Errorf("ack after delivery: cum = %d, want 2", cum)
	}
}

func TestARQGapProbeAdvertisesHoles(t *testing.T) {
	// Deliver segment 1 of 3 only, then go silent: the receiver's gap
	// probe must re-advertise cum=0 with bit 1 set, and after the probe
	// budget the half-assembled transfer must be dropped.
	cfg := fastARQ()
	cfg.MaxRetries = 3
	var mu sync.Mutex
	var probes [][]byte
	a := newARQ(cfg, linkRecvSegments, func(_ *net.UDPAddr, d []byte) error {
		mu.Lock()
		probes = append(probes, append([]byte(nil), d...))
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	seg := encodeRel(2, 1, 3, []byte("middle"))
	a.handleRel("p", nil, seg[1:], func([]byte) bool { return true })
	if err := waitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(probes) >= 2 // initial ack + at least one gap probe
	}); err != nil {
		t.Fatal("gap probe never fired")
	}
	mu.Lock()
	for i, p := range probes {
		xfer, cum, bitmap, err := decodeAck(p[1:])
		if err != nil || xfer != 2 || cum != 0 || bitmap&0b10 == 0 {
			t.Errorf("probe %d = xfer %d cum %d bitmap %b err %v", i, xfer, cum, bitmap, err)
		}
	}
	mu.Unlock()
	// The probe budget eventually abandons the transfer.
	if err := waitFor(func() bool {
		_, r := a.active()
		return r == 0
	}); err != nil {
		t.Fatal("abandoned transfer never cleaned up")
	}
	if st := a.snapshot(); st.GapProbes == 0 {
		t.Error("no gap probes recorded")
	}
}

func TestARQSendValidation(t *testing.T) {
	a := newARQ(fastARQ(), linkRecvSegments, func(_ *net.UDPAddr, d []byte) error { return nil }, nil)
	defer a.close()
	if _, err := a.send("p", nil, nil); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := a.send("p", nil, make([]byte, maxMessage+1)); err == nil {
		t.Error("message beyond maxSegments segments accepted")
	}
}

// TestARQCorruptionBehavesLikeLoss flips, in turn, every byte of a
// segment's first transmission and of the receiver's first ack. The
// checksum must turn each flip into a plain loss: the transfer still
// completes, and its segment is delivered exactly once.
func TestARQCorruptionBehavesLikeLoss(t *testing.T) {
	inner := []byte("flip-me")
	for _, tc := range []struct {
		name   string
		length int  // datagram length: every byte index is flipped once
		ack    bool // corrupt the receiver's ack instead of the segment
	}{
		{"segment", len(encodeRel(1, 0, 1, inner)), false},
		{"ack", 1 + ackBodyLen, true},
	} {
		for i := 0; i < tc.length; i++ {
			t.Run(fmt.Sprintf("%s/byte=%d", tc.name, i), func(t *testing.T) {
				var sent atomic.Int32
				flipFirst := func(d []byte, tx func([]byte) error) error {
					if sent.Add(1) != 1 {
						return tx(d)
					}
					c := append([]byte(nil), d...)
					c[i] ^= 0xFF
					return tx(c)
				}
				var aFilter, bFilter SendFilter = flipFirst, nil
				if tc.ack {
					aFilter, bFilter = nil, flipFirst
				}
				var delivered atomic.Int32
				pair := newARQPair(fastARQ(), aFilter, bFilter,
					func([]byte) bool { return true },
					func(got []byte) bool {
						if bytes.Equal(got, inner) {
							delivered.Add(1)
						}
						return true
					})
				defer pair.close()
				x, err := pair.a.send("peer", nil, inner)
				if err != nil {
					t.Fatal(err)
				}
				if err := waitFor(func() bool {
					s, _ := pair.a.active()
					return s == 0
				}); err != nil {
					t.Fatalf("transfer never completed: %v", err)
				}
				select {
				case err := <-x.failed:
					t.Fatalf("transfer failed: %v", err)
				default:
				}
				if n := delivered.Load(); n != 1 {
					t.Errorf("segment delivered %d times, want exactly once", n)
				}
			})
		}
	}
}

// TestARQPortReuseFreshTransferIDs runs two successive client ARQs
// against one server peer key — a new link inheriting the ephemeral port
// of a closed one. The second link's first request must be delivered,
// not re-acked as a duplicate of the first link's transfer.
func TestARQPortReuseFreshTransferIDs(t *testing.T) {
	var mu sync.Mutex
	var client *arq
	var delivered []string
	server := newARQ(fastARQ(), serverRecvSegments, func(_ *net.UDPAddr, d []byte) error {
		mu.Lock()
		c := client
		mu.Unlock()
		if d[0] == MsgAck {
			c.handleAck("", d[1:])
		}
		return nil
	}, nil)
	defer server.close()
	for link := 0; link < 2; link++ {
		c := newARQ(fastARQ(), linkRecvSegments, func(_ *net.UDPAddr, d []byte) error {
			server.handleRel("127.0.0.1:40000", nil, d[1:], func(inner []byte) bool {
				mu.Lock()
				delivered = append(delivered, string(inner))
				mu.Unlock()
				return true
			})
			return nil
		}, nil)
		mu.Lock()
		client = c
		mu.Unlock()
		if _, err := c.send("", nil, []byte(fmt.Sprintf("hello from link %d", link))); err != nil {
			t.Fatal(err)
		}
		if err := waitFor(func() bool {
			s, _ := c.active()
			return s == 0
		}); err != nil {
			t.Fatalf("link %d: transfer never completed: %v", link, err)
		}
		c.close()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 2 || delivered[0] == delivered[1] {
		t.Fatalf("server delivered %q, want one request from each link", delivered)
	}
	if st := server.snapshot(); st.DupSegments != 0 {
		t.Errorf("server counted %d duplicate segments across links, want 0", st.DupSegments)
	}
}

// TestARQReceiveHardening feeds a receiver inconsistent segment streams.
// Whatever arrives, it delivers only complete transfers within its role's
// bound, each once, as its first-received segments in seq order.
func TestARQReceiveHardening(t *testing.T) {
	type seg struct {
		xfer       uint32
		seq, total uint16
		data       string
	}
	for _, tc := range []struct {
		name      string
		bound     int
		in        []seg
		want      []string // delivered messages, in order
		wantRecvs int      // half-built transfers left behind
	}{
		{"total changes mid-transfer", linkRecvSegments,
			[]seg{{1, 0, 3, "a"}, {1, 1, 4, "X"}, {1, 1, 3, "b"}, {1, 2, 3, "c"}},
			[]string{"abc"}, 0},
		{"seq at or above total", linkRecvSegments,
			[]seg{{1, 3, 3, "X"}, {1, 0, 1, "ok"}},
			[]string{"ok"}, 0},
		{"total above server bound", serverRecvSegments,
			[]seg{{1, 0, 2, "a"}, {1, 1, 2, "b"}, {2, 0, 1, "request"}},
			[]string{"request"}, 0},
		{"total above link bound", linkRecvSegments,
			[]seg{{1, 0, maxSegments + 1, "a"}},
			nil, 0},
		{"duplicate seq keeps the first copy", linkRecvSegments,
			[]seg{{1, 0, 2, "first"}, {1, 0, 2, "SECOND"}, {1, 1, 2, "|tail"}},
			[]string{"first|tail"}, 0},
		{"incomplete transfer never delivered", linkRecvSegments,
			[]seg{{1, 0, 3, "a"}, {1, 2, 3, "c"}, {1, 2, 3, "c"}},
			nil, 1},
		{"reordered segments reassembled in seq order", linkRecvSegments,
			[]seg{{1, 2, 3, "c"}, {1, 0, 3, "a"}, {1, 1, 3, "b"}},
			[]string{"abc"}, 0},
		{"retransmit after completion not redelivered", linkRecvSegments,
			[]seg{{1, 0, 2, "a"}, {1, 1, 2, "b"}, {1, 0, 2, "a"}, {1, 1, 2, "b"}},
			[]string{"ab"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastARQ()
			cfg.AckDelay = time.Hour // no gap probe abandons a transfer mid-test
			a := newARQ(cfg, tc.bound, func(*net.UDPAddr, []byte) error { return nil }, nil)
			defer a.close()
			var got []string
			for _, s := range tc.in {
				a.handleRel("p", nil, encodeRel(s.xfer, s.seq, s.total, []byte(s.data))[1:], func(msg []byte) bool {
					got = append(got, string(msg))
					return true
				})
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("delivered %q, want %q", got, tc.want)
			}
			if _, r := a.active(); r != tc.wantRecvs {
				t.Errorf("%d half-built transfers held, want %d", r, tc.wantRecvs)
			}
		})
	}
}
