package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"endbox"
	"endbox/internal/idps"
	"endbox/internal/packet"
	"endbox/mbox"
)

// imix-echo-udp: two clients over UDP loopback against an echoing network
// (paper Fig. 6 / Table I). Each exchange sends a 12-packet IMIX request
// (7 x 64, 4 x 576, 1 x 1500 B) one SendPacket at a time through
// ConnTrack(loose) + IDS over a generated 5000-rule set, then waits for
// all 12 echoes. Time goes to per-packet costs in both directions.
const (
	imixClients   = 2
	imixPerEx     = 12
	imixTuples    = 4096 // seeded 5-tuples per client
	imixPool      = 512  // distinct exchanges per client, sent round robin
	imixWarmup    = 400  // exchanges per client before the timed window
	imixRules     = 5000
	imixCraftOdds = 16 // one 576 B packet in this many carries an alerting payload
	imixDeadline  = 250 * time.Millisecond
	imixLedgerVer = 1000
	imixRuleSet   = "perfbench"
)

// imixSizes is one exchange's packet sizes before shuffling.
var imixSizes = [imixPerEx]int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1500}

// imixHeader is the per-packet tag at the start of each UDP payload:
// exchange index in the pool (2 B), packet index (1 B), client (1 B).
const imixHeader = 4

type imixExchange struct {
	pkts    [imixPerEx][]byte
	crafted [imixPerEx]bool
	bytes   uint64
}

// imixClient is one driver's view of its outstanding exchange.
type imixClient struct {
	mu      sync.Mutex
	cur     int // pool index of the outstanding exchange, -1 when none
	got     [imixPerEx]bool
	n       int
	done    chan struct{}
	timer   *time.Timer
	crafted int // alerting packets sent

	// Traced runs only: the operation and, per packet, the tracer clock
	// when it was sent and when the server delivered it.
	op          atomic.Uint64
	sentAt      [imixPerEx]atomic.Int64
	deliveredAt [imixPerEx]atomic.Int64
}

type imix struct {
	seed  int64
	rules string
	pool  [imixClients][imixPool]imixExchange

	e      *env
	cls    [imixClients]*endbox.Client
	tr     *tracer
	state  [imixClients]*imixClient
	packts atomic.Uint64 // packets handed to SendPacket

	echoed        atomic.Uint64 // echoes that matched byte for byte
	craftedEchoed atomic.Uint64
	late          atomic.Uint64 // echoes of exchanges that had timed out
	alerts        atomic.Uint64
	badMu         sync.Mutex
	bad           error
}

func newIMIX(seed int64) workload {
	w := &imix{seed: seed, rules: idps.GenerateRuleSet(imixRules, seed)}
	rnd := seeded(seed)
	craftPorts, craftContent := imixCrafted(w.rules)
	for c := 0; c < imixClients; c++ {
		src := packet.AddrFrom(10, 8, 0, byte(2+c))
		type tuple struct {
			dst    packet.Addr
			sp, dp uint16
		}
		tuples := make([]tuple, imixTuples)
		for i := range tuples {
			tuples[i] = tuple{packet.AddrFrom(198, 51, byte(rnd.Intn(256)), byte(1+rnd.Intn(254))),
				uint16(1024 + rnd.Intn(60000)), uint16(1 + rnd.Intn(1023))}
		}
		for x := range w.pool[c] {
			ex := &w.pool[c][x]
			sizes := imixSizes
			rnd.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			for i, size := range sizes {
				t := tuples[rnd.Intn(imixTuples)]
				payload := make([]byte, size-28)
				rnd.Read(payload)
				binary.BigEndian.PutUint16(payload, uint16(x))
				payload[2], payload[3] = byte(i), byte(c)
				if size == 576 && rnd.Intn(imixCraftOdds) == 0 {
					copy(payload[imixHeader:], craftContent)
					t.sp, t.dp = craftPorts[0], craftPorts[1]
					ex.crafted[i] = true
				}
				ex.pkts[i] = packet.NewUDP(src, t.dst, t.sp, t.dp, payload)
				ex.bytes += uint64(size)
			}
		}
	}
	return w
}

// imixCrafted finds the first UDP alert rule of the generated set whose
// ports can be met and returns those ports plus a payload fragment holding
// every content pattern of the rule, so the packets carrying it alert
// deterministically. Random filler cannot alert by accident: generated
// patterns are %-delimited tokens of 10 or more bytes.
func imixCrafted(rules string) ([2]uint16, []byte) {
	parsedRules, err := idps.ParseRules(rules)
	if err != nil {
		panic(err)
	}
	for _, r := range parsedRules {
		if r.Action != idps.ActionAlert || r.Proto != idps.ProtoUDP {
			continue
		}
		sp, ok1 := satisfyPort(r.SrcPort)
		dp, ok2 := satisfyPort(r.DstPort)
		if !ok1 || !ok2 {
			continue
		}
		var content []byte
		for _, c := range r.Contents {
			content = append(content, c.Bytes...)
		}
		if len(content) > 576-28-imixHeader {
			continue
		}
		return [2]uint16{sp, dp}, content
	}
	panic("generated rule set has no satisfiable UDP alert rule")
}

func satisfyPort(spec idps.PortSpec) (uint16, bool) {
	for _, p := range []uint16{40000, 53, 80, 443, 25, 110, 143, 8080, 2000} {
		if spec.Matches(p) {
			return p, true
		}
	}
	return 0, false
}

func (w *imix) pipeline() endbox.Pipeline {
	return mbox.Chain(mbox.ConnTrack(mbox.ConnTrackOptions{Loose: true}), mbox.IDS(imixRuleSet))
}

func (w *imix) setup(tr *tracer) error {
	w.tr = tr
	w.packts.Store(0)
	w.echoed.Store(0)
	w.craftedEchoed.Store(0)
	w.late.Store(0)
	w.alerts.Store(0)
	w.bad = nil
	// The rule set is rebuilt on every setup: rule generation is part of
	// what a deployment pays before it serves.
	ruleSets := map[string]string{imixRuleSet: idps.GenerateRuleSet(imixRules, w.seed)}
	e, err := newEnv(envConfig{udp: true, workers: 2, echo: true, tr: tr, opID: new(atomic.Uint64),
		obs: endbox.ObserverFuncs{OnDelivered: w.onDelivered, OnReceived: w.onReceived,
			OnAlert: func(string, endbox.Alert) { w.alerts.Add(1) }}})
	if err != nil {
		return err
	}
	w.e = e
	for i := range w.cls {
		w.state[i] = &imixClient{cur: -1, done: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
		w.state[i].timer.Stop()
		c, err := joinTimed(tr, e.d, clientID(i), hwSpec(w.pipeline(), ruleSets))
		if err != nil {
			return err
		}
		w.cls[i] = c
	}
	// A lost echo in warm-up is the program's failure to count, not a
	// reason to abort; the timed window counts its own.
	if r := closedLoop(imixClients, 0, imixWarmup, nil, w.op); r.ops == 0 {
		return fmt.Errorf("warm-up: all %d exchanges failed", r.attempted)
	}
	return nil
}

func (w *imix) drivers() int { return imixClients }

func (w *imix) op(g, seq int) outcome {
	x := seq % imixPool
	ex := &w.pool[g][x]
	st := w.state[g]
	st.mu.Lock()
	st.cur, st.got, st.n = x, [imixPerEx]bool{}, 0
	st.mu.Unlock()
	select {
	case <-st.done:
	default:
	}
	traced := w.tr.enabled()
	if traced {
		st.op.Store(opID(g, seq))
	}
	for i, p := range ex.pkts {
		var start int64
		if traced {
			start = w.tr.now()
			st.sentAt[i].Store(start)
		}
		err := w.cls[g].SendPacket(p)
		if traced {
			w.tr.record("core.send", opID(g, seq), start, w.tr.now())
		}
		w.packts.Add(1)
		if ex.crafted[i] {
			st.mu.Lock()
			st.crafted++
			st.mu.Unlock()
		}
		if err != nil {
			w.abandon(st)
			return outcome{}
		}
	}
	st.timer.Reset(imixDeadline)
	select {
	case <-st.done:
		// Since Go 1.23 a stopped timer never delivers a stale tick, so
		// there is nothing to drain.
		st.timer.Stop()
		return outcome{ok: true, bytes: 2 * ex.bytes}
	case <-st.timer.C:
		w.abandon(st)
		return outcome{}
	}
}

// abandon gives up on the outstanding exchange; its echoes count as late.
func (w *imix) abandon(st *imixClient) {
	st.mu.Lock()
	st.cur = -1
	st.mu.Unlock()
}

// tag decodes the header of a workload packet (or its echo).
func tag(ip []byte) (x, i, c int, ok bool) {
	if len(ip) < 28+imixHeader {
		return 0, 0, 0, false
	}
	p := ip[28:]
	return int(binary.BigEndian.Uint16(p)), int(p[2]), int(p[3]), int(p[2]) < imixPerEx && int(p[3]) < imixClients
}

func (w *imix) onDelivered(_ string, ip []byte) {
	if !w.tr.enabled() {
		return
	}
	if _, i, c, ok := tag(ip); ok {
		st := w.state[c]
		now := w.tr.now()
		st.deliveredAt[i].Store(now)
		w.tr.record("core.egress", st.op.Load(), st.sentAt[i].Load(), now)
	}
}

func (w *imix) onReceived(id string, ip []byte) {
	x, i, c, ok := tag(ip)
	if !ok || clientIndex(id) != c || x >= imixPool {
		w.fail(fmt.Errorf("imix: client %s received a packet that is no echo of its own", id))
		return
	}
	sent := w.pool[c][x].pkts[i]
	if w.pool[c][x].crafted[i] {
		w.craftedEchoed.Add(1)
	}
	// The echo swaps the addresses and keeps the UDP datagram unchanged.
	if len(ip) != len(sent) || !bytes.Equal(ip[20:], sent[20:]) ||
		!bytes.Equal(ip[12:16], sent[16:20]) || !bytes.Equal(ip[16:20], sent[12:16]) {
		w.fail(fmt.Errorf("imix: echo of client %d exchange %d packet %d differs from what was sent", c, x, i))
		return
	}
	st := w.state[c]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cur != x || st.got[i] {
		w.late.Add(1)
		return
	}
	if w.tr.enabled() {
		w.tr.record("core.ingress", st.op.Load(), st.deliveredAt[i].Load(), w.tr.now())
	}
	st.got[i] = true
	st.n++
	w.echoed.Add(1)
	if st.n == imixPerEx {
		select {
		case st.done <- struct{}{}:
		default:
		}
	}
}

func (w *imix) fail(err error) {
	w.badMu.Lock()
	if w.bad == nil {
		w.bad = err
	}
	w.badMu.Unlock()
}

// settle waits until echoes of abandoned exchanges stop arriving.
func (w *imix) settle() {
	for prev := ^uint64(0); ; {
		time.Sleep(20 * time.Millisecond)
		n := w.late.Load() + w.echoed.Load() + w.alerts.Load()
		if n == prev {
			return
		}
		prev = n
	}
}

func (w *imix) check() error {
	w.badMu.Lock()
	bad := w.bad
	w.badMu.Unlock()
	if bad != nil {
		return bad
	}
	crafted := 0
	for _, st := range w.state {
		st.mu.Lock()
		crafted += st.crafted
		st.mu.Unlock()
	}
	// Every alerting packet alerts once on the way out and its echo once
	// on the way back in: the pipeline runs in both directions.
	want := uint64(crafted) + w.craftedEchoed.Load()
	if got := w.alerts.Load(); got != want {
		return fmt.Errorf("imix: %d IDS alerts, want %d (%d alerting packets sent, %d echoed)",
			got, want, crafted, w.craftedEchoed.Load())
	}
	if crafted == 0 {
		return fmt.Errorf("imix: no alerting packet was sent")
	}
	return nil
}

func (w *imix) counters() counters {
	c := readCounters(w.e, w.cls[:], w.packts.Load())
	// Inbound echoes cross into the enclave in batches of whatever the
	// link has queued, so the crossing count depends on timing.
	delete(c.exact, "sgx.transitions")
	return c
}

func (w *imix) notes() []string {
	return []string{fmt.Sprintf("echoes matched %d, late %d; IDS alerts %d", w.echoed.Load(), w.late.Load(), w.alerts.Load())}
}

func (w *imix) ledger(l *ledger) ([]ledgerTerm, error) {
	var pkts [][]byte
	for _, ex := range w.pool[0][:64] {
		pkts = append(pkts, ex.pkts[:]...)
	}
	ruleSets := map[string]string{imixRuleSet: w.rules}
	if err := l.common(pkts, imixPerEx, w.pipeline(), ruleSets, w.rules, []string{clientID(0), clientID(1)}); err != nil {
		return nil, err
	}
	if err := l.swap(w.e.d, w.cls[0], imixLedgerVer, 3, func(i int) endbox.Pipeline {
		return mbox.Chain(mbox.ConnTrack(mbox.ConnTrackOptions{Loose: true}),
			mbox.Firewall(fmt.Sprintf("drop src host 203.0.113.%d && dst port %d", 1+i, 7000+i), "allow all"),
			mbox.IDS(imixRuleSet))
	}, ruleSets); err != nil {
		return nil, err
	}
	if err := l.controlProbe(w.e.d, imixLedgerVer+100); err != nil {
		return nil, err
	}
	// Per exchange: 12 packets out and 12 echoes back, each sealed once,
	// opened once and run through the pipeline once; each direction's
	// datagrams are written by one SendFrame-like socket write.
	const both = 2 * imixPerEx
	return []ledgerTerm{
		l.term("wire.seal_ns", both),
		l.term("wire.open_ns", both),
		l.term("sgx.ecall_ns", l.ecallsPerOp),
		l.term("click.process_ns", both),
		l.term("dataplane.lookup_ns", imixPerEx),
		l.term("udptransport.sendframe_us", both),
	}, nil
}

func (w *imix) close() {
	if w.e != nil {
		w.e.close()
		w.e = nil
	}
	w.cls = [len(w.cls)]*endbox.Client{}
}
