package udptransport

// Loss-injection tests: the full UDP transport (server serve loop +
// client link) driven through deterministic netsim.Faults impairment.
// These carry the TestLossy prefix CI runs as a dedicated -race job.

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"endbox/internal/attest"
	"endbox/internal/core"
	"endbox/internal/netsim"
	"endbox/internal/vpn"
)

// lossyCfg is the ARQ tuning the lossy tests run with: fast timers so a
// full recovery schedule fits in test time.
func lossyCfg() RetransmitConfig {
	return RetransmitConfig{
		Timeout:    25 * time.Millisecond,
		Backoff:    1.5,
		MaxRetries: 10,
		AckDelay:   10 * time.Millisecond,
		Window:     32,
	}
}

// fiveSegmentBlob builds a configuration blob whose MsgConfig response
// spans exactly five segments.
func fiveSegmentBlob() []byte {
	return testMessage(4*SegmentPayload + SegmentPayload/2)
}

// startLossyTransport binds a server transport with the given impairment
// on its control-path sends.
func startLossyTransport(t *testing.T, ep *fakeEndpoint, filter SendFilter) *Transport {
	t.Helper()
	tr := NewTransport("127.0.0.1:0")
	tr.Configure(0, lossyCfg(), core.LossProfile{})
	tr.SetSendFilter(filter)
	if err := tr.BindServer(ep); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestLossyConfigFetchFiveChunks is the acceptance scenario: a
// configuration fetch whose response spans five segments completes under
// 15% simulated loss (plus duplication and reordering) in both
// directions, within the retry budget, with a deterministic seed.
func TestLossyConfigFetchFiveChunks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := fiveSegmentBlob()
	// The MsgConfig response is the type byte plus the blob.
	if segments := len(blob)/SegmentPayload + 1; segments != 5 {
		t.Fatalf("test blob spans %d segments, want 5", segments)
	}
	ep := &fakeEndpoint{caPub: pub, blob: blob}
	// Server-side impairment: the seeded 15%/5%/5% model, plus a
	// deterministic drop of the 1st and 3rd control datagrams the server
	// sends — the first transmissions of two segments. Whatever the seeded
	// model does this run, at least two segments MUST be recovered by
	// retransmission for the fetch to complete.
	serverLoss := netsim.NewFaults(1001, 0.15, 0.05, 0.05)
	var sent atomic.Int64
	serverFilter := func(d []byte, tx func([]byte) error) error {
		switch sent.Add(1) {
		case 1, 3:
			return nil // deterministic segment loss
		}
		return serverLoss.Filter(d, tx)
	}
	tr := startLossyTransport(t, ep, serverFilter)

	clientLoss := netsim.NewFaults(2002, 0.15, 0.05, 0.05)
	link, err := Dial(ctx, tr.Addr(),
		LinkRetransmit(lossyCfg()),
		LinkSendFilter(clientLoss.Filter))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	fetched, err := link.FetchConfig(ctx, 1)
	if err != nil {
		t.Fatalf("FetchConfig under 15%% loss: %v (link stats %+v, server stats %+v)",
			err, link.ARQStats(), tr.ARQStats())
	}
	if !bytes.Equal(fetched, blob) {
		t.Fatalf("reassembled blob corrupt: %d bytes vs %d", len(fetched), len(blob))
	}
	srv := tr.ARQStats()
	if srv.Retransmits+srv.FastRetransmit < 2 {
		t.Errorf("the two deterministically dropped segments were not retransmitted: %+v", srv)
	}
	t.Logf("server ARQ under 15%%/5%%/5%% + 2 forced segment drops: %+v", srv)
	t.Logf("client ARQ: %+v", link.ARQStats())
}

// TestLossyControlRoundTrips runs the attestation/handshake control
// messages under the same impairment.
func TestLossyControlRoundTrips(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &fakeEndpoint{caPub: pub, blob: []byte("small")}
	tr := startLossyTransport(t, ep, netsim.NewFaults(7, 0.15, 0.05, 0.05).Filter)

	link, err := Dial(ctx, tr.Addr(),
		LinkRetransmit(lossyCfg()),
		LinkSendFilter(netsim.NewFaults(8, 0.15, 0.05, 0.05).Filter))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	for i := 0; i < 5; i++ {
		got, err := link.Register(ctx, fmt.Sprintf("lossy-platform-%d", i), pub)
		if err != nil {
			t.Fatalf("Register %d under loss: %v", i, err)
		}
		if !got.Equal(pub) {
			t.Fatalf("Register %d: CA key corrupted in transit", i)
		}
	}
	if _, err := link.Hello(ctx, &vpn.ClientHello{ClientID: "lossy-1"}); err != nil {
		t.Fatalf("Hello under loss: %v", err)
	}
	// Server errors still propagate through the reliable path.
	if _, err := link.Register(ctx, "denied", pub); err == nil {
		t.Error("denied registration succeeded under the reliable path")
	}
	if _, err := link.FetchConfig(ctx, 404); err == nil {
		t.Error("fetch error not propagated under the reliable path")
	}
}

// TestLossyFetchCancelMidRetransmit cancels a configuration fetch while
// the ARQ layer is still retransmitting into a black hole and verifies
// the transfer state and timers are torn down and no goroutine leaks —
// run under -race in CI.
func TestLossyFetchCancelMidRetransmit(t *testing.T) {
	before := runtime.NumGoroutine()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &fakeEndpoint{caPub: pub, blob: fiveSegmentBlob()}
	// The server answers into a black hole: the client sees nothing, so
	// its request transfer keeps retransmitting until cancelled.
	tr := startLossyTransport(t, ep, func([]byte, func([]byte) error) error { return nil })

	link, err := Dial(context.Background(), tr.Addr(), LinkRetransmit(lossyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	ctx, cancel := context.WithCancel(context.Background())
	fetchErr := make(chan error, 1)
	go func() {
		_, err := link.FetchConfig(ctx, 1)
		fetchErr <- err
	}()
	// Let at least one retransmission round happen, then cancel mid-burn.
	time.Sleep(60 * time.Millisecond)
	cancel()
	select {
	case err := <-fetchErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fetch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled fetch never returned")
	}
	// The deferred cancel inside FetchConfig must have removed the
	// transfer and stopped its timer.
	if err := waitFor(func() bool {
		sends, _ := link.arq.active()
		return sends == 0
	}); err != nil {
		sends, recvs := link.arq.active()
		t.Fatalf("ARQ state leaked after cancel: %d sends, %d recvs", sends, recvs)
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close every timer is stopped; give late AfterFunc goroutines
	// a moment to drain, then require the goroutine count back to start.
	if err := waitFor(func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	}); err != nil {
		t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// TestLossyUnwrappedControlIgnored pins that the ARQ is the only control
// path: a bare MsgRegister or MsgFetch, sent without its MsgRel envelope,
// gets no reply and reaches no ServerEndpoint method, while an ARQ client
// of the same server keeps being served.
func TestLossyUnwrappedControlIgnored(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &fakeEndpoint{caPub: pub, blob: []byte("config")}
	tr := startLossyTransport(t, ep, nil)

	server, err := net.ResolveUDPAddr("udp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	bare, err := net.DialUDP("udp", nil, server)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	register, err := EncodeJSON(MsgRegister, Register{PlatformID: "bare", Key: pub})
	if err != nil {
		t.Fatal(err)
	}
	fetch := Encode(MsgFetch, make([]byte, 8))
	for _, d := range [][]byte{register, fetch} {
		if _, err := bare.Write(d); err != nil {
			t.Fatal(err)
		}
	}

	// The server reads its socket in order, so once the ARQ client's
	// round trips complete, the bare datagrams sent earlier were handled.
	link, err := Dial(ctx, tr.Addr(), LinkRetransmit(lossyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if got, err := link.Register(ctx, "wrapped", pub); err != nil || !got.Equal(pub) {
		t.Fatalf("ARQ Register beside bare traffic: key ok %v, err %v", got.Equal(pub), err)
	}
	if got, err := link.FetchConfig(ctx, 1); err != nil || string(got) != "config" {
		t.Fatalf("ARQ FetchConfig beside bare traffic: %q, %v", got, err)
	}
	if n := ep.calls.Load(); n != 2 {
		t.Errorf("endpoint called %d times, want 2 (the wrapped Register and FetchConfig)", n)
	}
	ep.mu.Lock()
	platforms := fmt.Sprint(ep.platforms)
	ep.mu.Unlock()
	if platforms != "[wrapped]" {
		t.Errorf("registered platforms %s, want [wrapped]", platforms)
	}
	if err := bare.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	if n, err := bare.Read(buf); err == nil {
		t.Fatalf("bare request answered with a %d-byte %c datagram", n, buf[0])
	}
}

// faultOnce is a SendFilter that applies one fault to the first datagram
// match selects and passes every other datagram through unchanged.
type faultOnce struct {
	fault string // corrupt, drop, dup or reorder
	match func(datagram []byte) bool

	mu   sync.Mutex
	hit  bool
	held []byte // reorder: sent right after the next datagram
}

func (f *faultOnce) filter(d []byte, tx func([]byte) error) error {
	f.mu.Lock()
	if held := f.held; held != nil {
		f.held = nil
		f.mu.Unlock()
		err := tx(d)
		_ = tx(held)
		return err
	}
	if f.hit || !f.match(d) {
		f.mu.Unlock()
		return tx(d)
	}
	f.hit = true
	defer f.mu.Unlock()
	switch f.fault {
	case "corrupt":
		c := bytes.Clone(d)
		c[len(c)/2] ^= 0xFF
		return tx(c)
	case "drop":
		return nil
	case "dup":
		_ = tx(d)
		return tx(d)
	default: // reorder
		f.held = bytes.Clone(d)
		return nil
	}
}

func (f *faultOnce) fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hit
}

// TestARQFaultTable pins the control rows of the fault table in
// docs/PROTOCOL.md §1 over real sockets: every control message type, and
// the acks of each direction, × {corrupt, drop, dup, reorder}. The fault
// hits the first datagram of that type. Whatever it is, the round trip
// completes with the right answer and the endpoint runs once: a corrupt
// or dropped segment is retransmitted, a duplicate is absorbed rather
// than delivered again, and reordered segments are reassembled in seq
// order.
func TestARQFaultTable(t *testing.T) {
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := testMessage(2*SegmentPayload + 17) // MsgConfig spans three segments
	register := func(ctx context.Context, l *Link) error {
		got, err := l.Register(ctx, "platform", pub)
		if err == nil && !got.Equal(pub) {
			err = fmt.Errorf("CA key corrupted")
		}
		return err
	}
	enroll := func(ctx context.Context, l *Link) error {
		prov, err := l.Enroll(ctx, attest.Quote{PlatformID: "enrolled"})
		if err == nil && string(prov.SealedKey) != "sealed" {
			err = fmt.Errorf("provision corrupted: %+v", prov)
		}
		return err
	}
	refused := func(ctx context.Context, l *Link) error {
		if _, err := l.Enroll(ctx, attest.Quote{}); err == nil || !strings.Contains(err.Error(), "enrolment closed") {
			return fmt.Errorf("want the server's refusal, got %v", err)
		}
		return nil
	}
	hello := func(ctx context.Context, l *Link) error {
		sh, err := l.Hello(ctx, &vpn.ClientHello{ClientID: "c"})
		if err == nil && sh.ChosenTLS != vpn.TLS13 {
			err = fmt.Errorf("server hello corrupted: %+v", sh)
		}
		return err
	}
	resume := func(ctx context.Context, l *Link) error {
		reply, err := l.Resume(ctx, &vpn.ResumeRequest{ClientID: "c", ConfigVersion: 7})
		if err == nil && reply.ConfigVersion != 7 {
			err = fmt.Errorf("resume reply corrupted: %+v", reply)
		}
		return err
	}
	fetch := func(ctx context.Context, l *Link) error {
		got, err := l.FetchConfig(ctx, 1)
		if err == nil && !bytes.Equal(got, blob) {
			err = fmt.Errorf("blob corrupted")
		}
		return err
	}
	for _, row := range []struct {
		name       string
		typ        byte // MsgAck, or the message a MsgRel carries at seq 0
		fromServer bool
		roundTrip  func(context.Context, *Link) error
	}{
		{"MsgRegister", MsgRegister, false, register},
		{"MsgRegisterOK", MsgRegisterOK, true, register},
		{"MsgQuote", MsgQuote, false, enroll},
		{"MsgProvision", MsgProvision, true, enroll},
		{"MsgHello", MsgHello, false, hello},
		{"MsgServerHello", MsgServerHello, true, hello},
		{"MsgResume", MsgResume, false, resume},
		{"MsgResumeOK", MsgResumeOK, true, resume},
		{"MsgFetch", MsgFetch, false, fetch},
		{"MsgConfig", MsgConfig, true, fetch},
		{"MsgError", MsgError, true, refused},
		{"MsgAck-from-client", MsgAck, false, fetch},
		{"MsgAck-from-server", MsgAck, true, fetch},
	} {
		for _, fault := range []string{"corrupt", "drop", "dup", "reorder"} {
			t.Run(row.name+"/"+fault, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				f := &faultOnce{fault: fault, match: func(d []byte) bool {
					if row.typ == MsgAck {
						return d[0] == MsgAck
					}
					return d[0] == MsgRel && len(d) > relHeaderLen &&
						binary.BigEndian.Uint16(d[5:]) == 0 && d[relHeaderLen] == row.typ
				}}
				var serverFilter, linkFilter SendFilter
				if row.fromServer {
					serverFilter = f.filter
				} else {
					linkFilter = f.filter
				}
				ep := &fakeEndpoint{caPub: pub, blob: blob}
				tr := startLossyTransport(t, ep, serverFilter)
				link, err := Dial(ctx, tr.Addr(), LinkRetransmit(lossyCfg()), LinkSendFilter(linkFilter))
				if err != nil {
					t.Fatal(err)
				}
				defer link.Close()

				if err := row.roundTrip(ctx, link); err != nil {
					t.Fatalf("round trip: %v", err)
				}
				// The server acks a request only after sending its response,
				// so a faulted ack may still be on its way when the round
				// trip returns.
				if err := waitFor(f.fired); err != nil {
					t.Fatal("the fault never hit a datagram")
				}
				sender, receiver := link.arq, tr.arq
				if row.fromServer {
					sender, receiver = receiver, sender
				}
				if row.typ != MsgAck {
					switch fault {
					case "corrupt", "drop":
						if st := sender.snapshot(); st.Retransmits+st.FastRetransmit == 0 {
							t.Errorf("lost segment never retransmitted: %+v", st)
						}
					case "dup":
						if err := waitFor(func() bool { return receiver.snapshot().DupSegments > 0 }); err != nil {
							t.Errorf("duplicate never absorbed: %+v", receiver.snapshot())
						}
					}
				}
				if n := ep.calls.Load(); n != 1 {
					t.Errorf("endpoint called %d times, want 1", n)
				}
				if n := len(link.control); n != 0 {
					t.Errorf("%d stray responses queued: a response was delivered twice", n)
				}
			})
		}
	}
}

// TestLossyFramesBypassARQ pins the drop row of MsgFrame and MsgControl
// in the docs/PROTOCOL.md §1 fault table: sealed frames never enter the
// ARQ layer or the control-path send filter, in either direction, so a
// lost frame stays lost and nothing retransmits it.
func TestLossyFramesBypassARQ(t *testing.T) {
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		send func(*Link, []byte) error
	}{
		{"MsgFrame", (*Link).SendFrame},
		{"MsgControl", (*Link).SendControlFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var filtered sync.Map // message types the send filters saw
			filter := func(d []byte, tx func([]byte) error) error {
				filtered.Store(d[0], true)
				return tx(d)
			}
			ep := &fakeEndpoint{caPub: pub}
			tr := startLossyTransport(t, ep, filter)
			link, err := Dial(ctx, tr.Addr(), LinkRetransmit(lossyCfg()), LinkSendFilter(filter))
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()
			if _, err := link.Hello(ctx, &vpn.ClientHello{ClientID: "c1"}); err != nil {
				t.Fatal(err)
			}
			pushed := make(chan struct{}, 1)
			link.SetDeliver(func([][]byte) error {
				pushed <- struct{}{}
				return nil
			})

			if err := tc.send(link, []byte("sealed")); err != nil {
				t.Fatal(err)
			}
			if err := tr.SendToClient("c1", []byte("sealed")); err != nil {
				t.Fatal(err)
			}
			if err := waitFor(func() bool {
				ep.mu.Lock()
				defer ep.mu.Unlock()
				return len(ep.frames) == 1
			}); err != nil {
				t.Fatal("frame never reached the endpoint")
			}
			select {
			case <-pushed:
			case <-ctx.Done():
				t.Fatal("pushed frame never delivered")
			}
			for _, typ := range []byte{MsgFrame, MsgControl} {
				if _, ok := filtered.Load(typ); ok {
					t.Errorf("a %c datagram went through the control-path send filter", typ)
				}
			}
			// The only transfers are the handshake's request and response.
			if l, s := link.ARQStats().TransfersSent, tr.ARQStats().TransfersSent; l != 1 || s != 1 {
				t.Errorf("ARQ transfers: link %d, server %d; want 1 each (the handshake)", l, s)
			}
		})
	}
}
