package main

import (
	"fmt"
	"sync/atomic"

	"endbox"
	"endbox/internal/packet"
	"endbox/mbox"
)

// bulk-1500: two clients on the in-process transport, each sending
// 32 x 1500 B UDP bursts through the stock firewall in one SendPackets
// call (paper Fig. 9). Time goes to per-byte wire crypto with one enclave
// crossing per burst; the UDP transport, the ingress pool, the ARQ layer
// and the handshake are bypassed.
const (
	bulkClients   = 2
	bulkBurst     = 32
	bulkSize      = 1500
	bulkPool      = 64 // distinct bursts per client, sent round robin
	bulkWarmup    = 64 // bursts per client before the timed window
	bulkLedgerVer = 1000
	bulkIngress   = 256 // packets the server pushes to time the ingress path
)

type bulk struct {
	seed   int64
	bursts [bulkClients][][][]byte

	e   *env
	cls [bulkClients]*endbox.Client
	tr  *tracer
	op0 [bulkClients]atomic.Int64 // tracer clock at the current burst's start
	ops [bulkClients]atomic.Uint64

	sent, sentBytes           atomic.Uint64
	delivered, deliveredBytes atomic.Uint64
	pushed                    atomic.Int64 // tracer clock of the last ingress push
	received                  atomic.Uint64
}

func newBulk(seed int64) workload {
	b := &bulk{seed: seed}
	rnd := seeded(seed)
	for c := range b.bursts {
		src := packet.AddrFrom(10, 8, 0, byte(2+c))
		for i := 0; i < bulkPool; i++ {
			burst := make([][]byte, bulkBurst)
			for j := range burst {
				payload := make([]byte, bulkSize-28)
				rnd.Read(payload)
				dst := packet.AddrFrom(192, 0, 2, byte(1+rnd.Intn(254)))
				burst[j] = packet.NewUDP(src, dst, uint16(1024+rnd.Intn(60000)), uint16(1+rnd.Intn(1023)), payload)
			}
			b.bursts[c] = append(b.bursts[c], burst)
		}
	}
	return b
}

func clientID(i int) string { return fmt.Sprintf("c%d", i) }

// clientIndex maps a client ID back to its driver.
func clientIndex(id string) int {
	if len(id) == 2 && id[0] == 'c' {
		return int(id[1] - '0')
	}
	return -1
}

func (b *bulk) pipeline() endbox.Pipeline { return mbox.Stock(mbox.UseCaseFW) }

func (b *bulk) setup(tr *tracer) error {
	b.tr = tr
	b.sent.Store(0)
	b.sentBytes.Store(0)
	b.delivered.Store(0)
	b.deliveredBytes.Store(0)
	e, err := newEnv(envConfig{tr: tr, opID: new(atomic.Uint64), obs: endbox.ObserverFuncs{OnDelivered: b.onDelivered, OnReceived: b.onReceived}})
	if err != nil {
		return err
	}
	b.e = e
	for i := range b.cls {
		c, err := joinTimed(tr, e.d, clientID(i), hwSpec(b.pipeline(), nil))
		if err != nil {
			return err
		}
		b.cls[i] = c
	}
	r := closedLoop(bulkClients, 0, bulkWarmup, nil, b.op)
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d bursts failed", r.failed, r.attempted)
	}
	return nil
}

func (b *bulk) drivers() int { return bulkClients }

func (b *bulk) op(g, seq int) outcome {
	burst := b.bursts[g][seq%bulkPool]
	traced := b.tr.enabled()
	var start int64
	if traced {
		start = b.tr.now()
		b.op0[g].Store(start)
		b.ops[g].Store(opID(g, seq))
	}
	n, err := b.cls[g].SendPackets(burst)
	if traced {
		b.tr.record("core.send", opID(g, seq), start, b.tr.now())
	}
	b.sent.Add(uint64(len(burst)))
	b.sentBytes.Add(uint64(len(burst) * bulkSize))
	if err != nil || n != len(burst) {
		return outcome{}
	}
	return outcome{ok: true, bytes: uint64(len(burst) * bulkSize)}
}

// opID names an operation uniquely across drivers.
func opID(g, seq int) uint64 { return uint64(g)<<40 | uint64(seq) }

func (b *bulk) onDelivered(id string, ip []byte) {
	b.delivered.Add(1)
	b.deliveredBytes.Add(uint64(len(ip)))
	if b.tr.enabled() {
		if g := clientIndex(id); g >= 0 {
			b.tr.record("core.egress", b.ops[g].Load(), b.op0[g].Load(), b.tr.now())
		}
	}
}

// settle has nothing to wait for: in-process delivery completes inside
// SendPackets.
func (b *bulk) settle() {}

func (b *bulk) check() error {
	sent, got := b.sent.Load(), b.delivered.Load()
	if got != sent || b.deliveredBytes.Load() != b.sentBytes.Load() {
		return fmt.Errorf("bulk: delivered %d packets / %d B, sent %d / %d B",
			got, b.deliveredBytes.Load(), sent, b.sentBytes.Load())
	}
	if agg := b.e.d.AggregateStats(); agg.RxPackets != sent {
		return fmt.Errorf("bulk: server counted %d packets in, sent %d", agg.RxPackets, sent)
	}
	return nil
}

func (b *bulk) counters() counters {
	return readCounters(b.e, b.cls[:], b.sent.Load())
}

func (b *bulk) ledger(l *ledger) ([]ledgerTerm, error) {
	var pkts [][]byte
	for _, burst := range b.bursts[0][:4] {
		pkts = append(pkts, burst...)
	}
	if err := l.common(pkts, bulkBurst, b.pipeline(), nil, communityRules(), []string{clientID(0), clientID(1)}); err != nil {
		return nil, err
	}
	if err := l.swap(b.e.d, b.cls[0], bulkLedgerVer, 8, func(i int) endbox.Pipeline {
		return mbox.Chain(mbox.Firewall(fmt.Sprintf("drop src host 203.0.113.%d && dst port %d", 1+i, 7000+i), "allow all"))
	}, nil); err != nil {
		return nil, err
	}
	if err := l.controlProbe(b.e.d, bulkLedgerVer+100); err != nil {
		return nil, err
	}
	if err := b.ingress(l.tr); err != nil {
		return nil, err
	}
	return []ledgerTerm{
		l.term("wire.seal_ns", bulkBurst),
		l.term("wire.open_ns", bulkBurst),
		l.term("vpn.slab_ns", 1),
		l.term("sgx.ecall_ns", l.ecallsPerOp),
		l.term("click.process_ns", bulkBurst),
		l.term("dataplane.lookup_ns", bulkBurst),
	}, nil
}

// ingress gives core.ingress samples on a workload whose network never
// answers: traced, the server pushes bulkIngress of the workload's
// packets to c0, each timed from VPN().SendTo to the client's
// OnReceived (the in-process transport delivers synchronously).
func (b *bulk) ingress(tr *tracer) error {
	tr.on.Store(true)
	defer tr.on.Store(false)
	b.received.Store(0)
	for i := 0; i < bulkIngress; i++ {
		b.pushed.Store(tr.now())
		if err := b.e.d.Server.VPN().SendTo(clientID(0), b.bursts[0][i/bulkBurst][i%bulkBurst], false); err != nil {
			return err
		}
	}
	if got := b.received.Load(); got != bulkIngress {
		return fmt.Errorf("bulk: client received %d of %d pushed packets", got, bulkIngress)
	}
	return nil
}

func (b *bulk) onReceived(_ string, _ []byte) {
	b.received.Add(1)
	b.tr.record("core.ingress", 0, b.pushed.Load(), b.tr.now())
}

func (b *bulk) close() {
	if b.e != nil {
		b.e.close()
		b.e = nil
	}
	b.cls = [len(b.cls)]*endbox.Client{}
}
