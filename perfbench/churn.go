package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"endbox"
	"endbox/internal/packet"
	"endbox/mbox"
)

// churn-rollout: one driver, two client slots, on the in-process
// transport. Each cycle joins two clients cold, rolls one fresh firewall
// rule out to the fleet and waits until both report it applied, resumes
// both from their tickets, checks each resumed session with one echoed
// packet, and removes both (paper Table II update timings; session
// lifecycle). churn-rollout-udp runs the same cycle over UDP loopback,
// where the ARQ port-reuse defect fails a few percent of the operations
// (README.md), so it is not one of the workloads BENCHMARK.json gates.
const (
	churnSlots     = 2
	churnWarmup    = 3   // cycles before the timed window
	churnPool      = 256 // distinct rules and probes, used round robin
	churnLedgerVer = 1 << 40
	churnProbe     = 576 // probe packet size
)

type churnCycle struct {
	rule   string   // firewall clause the cycle's rollout adds
	probes [][]byte // one probe packet per slot
}

type churn struct {
	seed     int64
	udp      bool          // UDP loopback instead of the in-process transport
	deadline time.Duration // per control operation
	cycles   [churnPool]churnCycle

	e       *env
	tr      *tracer
	opID    *atomic.Uint64
	version uint64

	// Enclave counters of clients already removed, so counters() covers
	// every enclave the run created.
	goneTransitions, goneEcalls uint64
	probes                      atomic.Uint64 // probe packets sent
	sentAt, deliveredAt         atomic.Int64  // tracer clock of the probe in flight

	mu      sync.Mutex
	waiting map[int][]byte // slot -> probe awaiting its echo
	echoed  map[int]chan struct{}
	bad     error

	joins, resumes, rollouts []float64 // ns, successful operations
	failures                 map[string]int
}

// newChurn returns the in-process churn workload. Its deadline only
// catches a broken system: an operation takes a few milliseconds.
func newChurn(seed int64) workload { return newChurnOn(seed, false, time.Second) }

// newChurnUDP returns churn over UDP loopback. The short deadline bounds
// what each port-reuse failure costs the driver.
func newChurnUDP(seed int64) workload { return newChurnOn(seed, true, 50*time.Millisecond) }

func newChurnOn(seed int64, udp bool, deadline time.Duration) workload {
	w := &churn{seed: seed, udp: udp, deadline: deadline}
	rnd := seeded(seed)
	for i := range w.cycles {
		w.cycles[i].rule = fmt.Sprintf("drop src host 203.0.113.%d && dst port %d", 1+rnd.Intn(254), 1024+rnd.Intn(60000))
		for s := 0; s < churnSlots; s++ {
			payload := make([]byte, churnProbe-28)
			rnd.Read(payload)
			w.cycles[i].probes = append(w.cycles[i].probes, packet.NewUDP(packet.AddrFrom(10, 8, 0, byte(2+s)),
				packet.AddrFrom(198, 51, 100, byte(1+rnd.Intn(254))), uint16(1024+rnd.Intn(60000)), uint16(1+rnd.Intn(1023)), payload))
		}
	}
	return w
}

func (w *churn) spec() endbox.ClientSpec { return hwSpec(mbox.Stock(mbox.UseCaseFW), nil) }

func (w *churn) setup(tr *tracer) error {
	w.tr = tr
	w.opID = new(atomic.Uint64)
	w.version = 1
	w.goneTransitions, w.goneEcalls = 0, 0
	w.probes.Store(0)
	w.waiting = map[int][]byte{}
	w.echoed = map[int]chan struct{}{}
	w.bad = nil
	w.joins, w.resumes, w.rollouts = nil, nil, nil
	w.failures = map[string]int{}
	e, err := newEnv(envConfig{udp: w.udp, workers: 2, echo: true, tr: tr, opID: w.opID,
		obs: endbox.ObserverFuncs{OnDelivered: w.onDelivered, OnReceived: w.onReceived}})
	if err != nil {
		return err
	}
	w.e = e
	// Warm-up tolerates the failures the timed window counts (over UDP,
	// the ARQ port-reuse defect; see README.md), but not a dead system.
	if r := closedLoop(1, 0, churnWarmup, nil, w.op); r.ops == 0 {
		return fmt.Errorf("warm-up: all %d cycles failed", churnWarmup)
	}
	w.joins, w.resumes, w.rollouts = nil, nil, nil
	w.failures = map[string]int{}
	return nil
}

func (w *churn) drivers() int { return 1 }

// op runs one cycle. Each control operation is one attempted operation;
// the first that fails or misses its deadline ends the cycle.
func (w *churn) op(_, seq int) outcome {
	cy := &w.cycles[seq%churnPool]
	w.opID.Store(uint64(seq))
	out := outcome{}
	var cls [churnSlots]*endbox.Client
	defer func() {
		for s, c := range cls {
			w.retire(c)
			w.e.d.RemoveClient(clientID(s))
		}
	}()
	step := func(kind string, fn func(ctx context.Context) error) bool {
		out.attempted++
		ctx, cancel := context.WithTimeout(context.Background(), w.deadline)
		defer cancel()
		start := w.tr.now()
		t0 := time.Now()
		err := fn(ctx)
		d := time.Since(t0)
		w.tr.record("core."+kind, uint64(seq), start, w.tr.now())
		if err != nil {
			out.failed++
			w.failures[kind]++
			return false
		}
		switch kind {
		case "join":
			w.joins = append(w.joins, float64(d))
		case "resume":
			w.resumes = append(w.resumes, float64(d))
		case "rollout":
			w.rollouts = append(w.rollouts, float64(d))
		}
		return true
	}

	for s := range cls {
		if !step("join", func(ctx context.Context) (err error) {
			cls[s], err = w.e.d.AddClient(ctx, clientID(s), w.spec())
			return err
		}) {
			return out
		}
	}
	w.version++
	v := w.version
	if !step("rollout", func(ctx context.Context) error { return w.rollout(ctx, cls[:], v, cy.rule) }) {
		return out
	}
	for s := range cls {
		state, err := w.e.d.ResumeState(clientID(s))
		if err != nil {
			w.fail(err)
			return out
		}
		if !step("resume", func(ctx context.Context) error {
			c, err := w.e.d.ResumeClient(ctx, state, w.spec())
			if err != nil {
				return err
			}
			w.retire(cls[s])
			cls[s] = c
			return w.probe(ctx, s, c, cy.probes[s])
		}) {
			return out
		}
		if got := cls[s].AppliedVersion(); got != v {
			w.fail(fmt.Errorf("churn: client %d resumed at version %d, want %d", s, got, v))
		}
	}
	out.ok = true
	for _, p := range cy.probes {
		out.bytes += 2 * uint64(len(p))
	}
	return out
}

// retire adds the counters of a client's enclave, which is about to be
// replaced or removed, to the run's totals.
func (w *churn) retire(c *endbox.Client) {
	if c != nil {
		st := c.EnclaveStats()
		w.goneTransitions += st.Transitions
		w.goneEcalls += st.Ecalls
	}
}

// rollout publishes version v fleet-wide and waits until every client
// reports it applied.
func (w *churn) rollout(ctx context.Context, cls []*endbox.Client, v uint64, rule string) error {
	if _, err := w.e.d.Rollout(ctx, endbox.Rollout{
		Version:      v,
		GraceSeconds: 1,
		Pipeline:     mbox.Chain(mbox.Firewall(rule, "allow all")),
	}); err != nil {
		return err
	}
	for {
		done := true
		for _, c := range cls {
			if err := c.LastUpdateError(); err != nil {
				return err
			}
			if c.AppliedVersion() != v {
				done = false
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Microsecond):
		}
	}
}

// probe sends one packet through a resumed session and waits for its echo.
func (w *churn) probe(ctx context.Context, slot int, c *endbox.Client, p []byte) error {
	ch := make(chan struct{}, 1)
	w.mu.Lock()
	w.waiting[slot], w.echoed[slot] = p, ch
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.waiting, slot)
		w.mu.Unlock()
	}()
	w.probes.Add(1)
	start := w.tr.now()
	w.sentAt.Store(start)
	err := c.SendPacket(p)
	w.tr.record("core.send", w.opID.Load(), start, w.tr.now())
	if err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("probe echo: %w", ctx.Err())
	}
}

func (w *churn) onReceived(id string, ip []byte) {
	s := clientIndex(id)
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.waiting[s]
	if !ok {
		return // the echo of a probe that already timed out
	}
	if len(ip) != len(p) || !bytes.Equal(ip[20:], p[20:]) ||
		!bytes.Equal(ip[12:16], p[16:20]) || !bytes.Equal(ip[16:20], p[12:16]) {
		if w.bad == nil {
			w.bad = fmt.Errorf("churn: probe echo for client %s differs from the probe", id)
		}
		return
	}
	delete(w.waiting, s)
	w.tr.record("core.ingress", w.opID.Load(), w.deliveredAt.Load(), w.tr.now())
	w.echoed[s] <- struct{}{}
}

// onDelivered times a probe's way to the network (traced runs only; the
// driver has one probe in flight at a time).
func (w *churn) onDelivered(string, []byte) {
	if w.tr.enabled() {
		now := w.tr.now()
		w.deliveredAt.Store(now)
		w.tr.record("core.egress", w.opID.Load(), w.sentAt.Load(), now)
	}
}

func (w *churn) fail(err error) {
	w.mu.Lock()
	w.bad = errors.Join(w.bad, err)
	w.mu.Unlock()
}

func (w *churn) settle() {}

func (w *churn) check() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bad
}

func (w *churn) counters() counters {
	c := readCounters(w.e, nil, w.probes.Load())
	c.transitions, c.ecalls = w.goneTransitions, w.goneEcalls
	c.exact["sgx.transitions"] = c.transitions
	return c
}

func (w *churn) notes() []string {
	var ns []string
	for _, k := range []struct {
		name string
		lat  []float64
	}{{"join", w.joins}, {"resume", w.resumes}, {"rollout", w.rollouts}} {
		ns = append(ns, latencyNote(k.name, k.lat, w.failures[k.name]))
	}
	if w.e.udp != nil {
		arq := w.e.arq()
		ns = append(ns, fmt.Sprintf("arq: dup_segments=%d retransmits=%d transfers_fail=%d links=%d",
			arq.DupSegments, arq.Retransmits+arq.FastRetransmit, arq.TransfersFail, w.e.udp.opened))
	}
	return ns
}

func (w *churn) ledger(l *ledger) ([]ledgerTerm, error) {
	var pkts [][]byte
	for _, cy := range w.cycles {
		pkts = append(pkts, cy.probes...)
	}
	if err := l.common(pkts, churnSlots, mbox.Stock(mbox.UseCaseFW), nil, communityRules(), []string{clientID(0), clientID(1)}); err != nil {
		return nil, err
	}
	c, err := joinTimed(nil, w.e.d, "ledger", w.spec())
	if err != nil {
		return nil, err
	}
	defer w.e.d.RemoveClient("ledger")
	if err := l.swap(w.e.d, c, churnLedgerVer, 8, func(i int) endbox.Pipeline {
		return mbox.Chain(mbox.Firewall(w.cycles[i].rule, "allow all"))
	}, nil); err != nil {
		return nil, err
	}
	// Per cycle: the server side of both joins, resumes and configuration
	// fetches as often as the traced half saw them, and both clients
	// decrypting and hot-swapping the rolled-out version.
	var terms []ledgerTerm
	for _, m := range []string{"attest.enroll_us", "vpn.hello_us", "lifecycle.resume_us", "config.fetch_us"} {
		terms = append(terms, l.term(m, l.spanPerOp[m]))
	}
	return append(terms, l.term("config.decrypt_us", churnSlots), l.term("click.hotswap_us", churnSlots)), nil
}

func (w *churn) close() {
	if w.e != nil {
		w.e.close()
		w.e = nil
	}
}
