package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"endbox"
	"endbox/internal/click"
	"endbox/internal/core"
	"endbox/internal/dataplane"
	"endbox/internal/flow"
	"endbox/internal/idps"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/udptransport"
	"endbox/internal/vpn"
	"endbox/internal/wire"
	"endbox/mbox"
)

// ledgerBudget is how long each single-layer measurement runs.
const ledgerBudget = 150 * time.Millisecond

// ledger times calls into single layers on a workload's own inputs and
// keeps each layer's cost per call for the residual.
type ledger struct {
	rep         *report
	tr          *tracer
	costs       map[string]float64 // metric name -> ns per call
	ecallsPerOp float64            // client ecalls per operation, measured untraced
	spanPerOp   map[string]float64 // span metric -> spans per operation, traced
}

func (l *ledger) set(name string, ns float64, n int, scale float64) {
	l.costs[name] = ns
	l.rep.set(name, ns/scale, n)
}

// term is one layer's share of an operation, by metric name; the traced
// run fills in the cost once every layer has been measured.
func (l *ledger) term(name string, perOp float64) ledgerTerm {
	return ledgerTerm{layer: name, perOp: perOp}
}

// repeat runs batch until ledgerBudget has passed, returning the time
// spent inside timed sections and the number of calls made.
func repeat(batch func() (time.Duration, int, error)) (time.Duration, int, error) {
	var busy time.Duration
	calls := 0
	for start := time.Now(); time.Since(start) < ledgerBudget; {
		d, n, err := batch()
		if err != nil {
			return 0, 0, err
		}
		busy += d
		calls += n
	}
	return busy, calls, nil
}

// dataPayload frames an IP packet the way the client enclave seals it.
func dataPayload(ip []byte) []byte { return append([]byte{vpn.FrameData}, ip...) }

// wire times wire.Session SealTo and OpenInPlace per packet.
func (l *ledger) wire(pkts [][]byte) error {
	master := bytes.Repeat([]byte{0x5a}, 32)
	cs, err := wire.NewSession(master, wire.ModeEncrypted, true)
	if err != nil {
		return err
	}
	ss, err := wire.NewSession(master, wire.ModeEncrypted, false)
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(pkts))
	bufs := make([][]byte, len(pkts))
	frames := make([][]byte, len(pkts))
	scratch := make([][]byte, len(pkts))
	for i, p := range pkts {
		payloads[i] = dataPayload(p)
		bufs[i] = make([]byte, 0, cs.SealedLen(len(payloads[i])))
	}
	var openBusy time.Duration
	sealBusy, n, err := repeat(func() (time.Duration, int, error) {
		t := time.Now()
		for i, p := range payloads {
			f, err := cs.SealTo(p, bufs[i])
			if err != nil {
				return 0, 0, err
			}
			frames[i] = f
		}
		sealed := time.Since(t)
		for i, f := range frames {
			scratch[i] = append(scratch[i][:0], f...)
		}
		t = time.Now()
		for _, f := range scratch {
			if _, err := ss.OpenInPlace(f); err != nil {
				return 0, 0, err
			}
		}
		openBusy += time.Since(t)
		return sealed, len(payloads), nil
	})
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	l.set("wire.seal_ns", float64(sealBusy)/float64(n), n, 1)
	l.set("wire.open_ns", float64(openBusy)/float64(n), n, 1)
	return nil
}

// slab times encoding one burst into a request slab, walking it, and
// walking the result slab the enclave answers with.
func (l *ledger) slab(pkts [][]byte, burst int) error {
	var req, res []byte
	next := 0
	busy, n, err := repeat(func() (time.Duration, int, error) {
		t := time.Now()
		req = req[:0]
		for i := 0; i < burst; i++ {
			req = vpn.AppendSlabFrame(req, vpn.FrameData, pkts[next%len(pkts)])
			next++
		}
		res = res[:0]
		r := vpn.NewSlabReader(req)
		for e, ok := r.Next(); ok; e, ok = r.Next() {
			res = vpn.AppendResultOK(res, e)
		}
		if r.Err() != nil {
			return 0, 0, r.Err()
		}
		got := 0
		rr := vpn.NewResultReader(res)
		for _, entryErr, ok := rr.Next(); ok; _, entryErr, ok = rr.Next() {
			if entryErr != nil {
				return 0, 0, entryErr
			}
			got++
		}
		if got != burst {
			return 0, 0, fmt.Errorf("result slab holds %d entries, want %d", got, burst)
		}
		return time.Since(t), 1, nil
	})
	if err != nil {
		return fmt.Errorf("vpn slab: %w", err)
	}
	l.set("vpn.slab_ns", float64(busy)/float64(n), n, 1)
	return nil
}

// ecall times a no-op ecall on a hardware-mode enclave that burns CPU per
// crossing, as the workloads' client enclaves do.
func (l *ledger) ecall() error {
	e, err := sgx.NewCPU("perfbench").CreateEnclave(sgx.Image{Name: "perfbench-nop", Version: "1", Code: []byte("nop")},
		sgx.Config{Mode: sgx.ModeHardware, BurnCPU: true})
	if err != nil {
		return err
	}
	defer e.Destroy()
	if err := e.RegisterEcall("nop", func(*sgx.Ctx, any) (any, error) { return nil, nil }); err != nil {
		return err
	}
	if err := e.Init(); err != nil {
		return err
	}
	busy, n, err := repeat(func() (time.Duration, int, error) {
		t := time.Now()
		for i := 0; i < 64; i++ {
			if _, err := e.Ecall("nop", nil); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t), 64, nil
	})
	if err != nil {
		return fmt.Errorf("sgx ecall: %w", err)
	}
	l.set("sgx.ecall_ns", float64(busy)/float64(n), n, 1)
	return nil
}

// parsed returns the packets parsed as IPv4.
func parsed(pkts [][]byte) ([]*packet.IPv4, error) {
	out := make([]*packet.IPv4, len(pkts))
	for i, p := range pkts {
		ip, err := packet.ParseIPv4(p)
		if err != nil {
			return nil, err
		}
		out[i] = ip
	}
	return out, nil
}

// withCommunity adds the community rule set to extra, as deployments do
// when they resolve rule-set names.
func withCommunity(extra map[string]string) map[string]string {
	all := core.CommunityRuleSets()
	for k, v := range extra {
		all[k] = v
	}
	return all
}

// click times click.Instance.Process on the workload's pipeline, parse
// included, as the enclave runs it per packet.
func (l *ledger) click(p endbox.Pipeline, ruleSets map[string]string, pkts [][]byte) error {
	sets := withCommunity(ruleSets)
	cfg, err := mbox.Compile(p, sets)
	if err != nil {
		return err
	}
	inst, err := click.NewInstance(cfg, nil, &click.Context{
		RuleSet: func(name string) (string, error) {
			if t, ok := sets[name]; ok {
				return t, nil
			}
			return "", fmt.Errorf("unknown rule set %q", name)
		},
		Flows: flow.NewContext(flow.Config{Seed: 1}),
	})
	if err != nil {
		return err
	}
	dropped := 0
	busy, n, err := repeat(func() (time.Duration, int, error) {
		t := time.Now()
		for _, raw := range pkts {
			ip := packet.AcquireIPv4()
			if err := ip.Parse(raw); err != nil {
				return 0, 0, err
			}
			if !inst.Process(ip).Accepted {
				dropped++
			}
			ip.Release()
		}
		return time.Since(t), len(pkts), nil
	})
	if err != nil {
		return fmt.Errorf("click: %w", err)
	}
	if dropped > 0 {
		return fmt.Errorf("click: pipeline dropped %d of the workload's packets", dropped)
	}
	l.set("click.process_ns", float64(busy)/float64(n), n, 1)
	return nil
}

// flowBind times binding the packets' 5-tuples in a flow table.
func (l *ledger) flowBind(pkts [][]byte) error {
	ips, err := parsed(pkts)
	if err != nil {
		return err
	}
	flows := make([]packet.Flow, len(ips))
	for i, ip := range ips {
		flows[i] = packet.FlowOf(ip)
	}
	fc := flow.NewContext(flow.Config{Seed: 1})
	busy, n, err := repeat(func() (time.Duration, int, error) {
		t := time.Now()
		for i, f := range flows {
			fc.Bind(f, len(pkts[i]))
		}
		return time.Since(t), len(flows), nil
	})
	if err != nil {
		return err
	}
	l.set("flow.bind_ns", float64(busy)/float64(n), n, 1)
	return nil
}

// idps times the IDPS engine on the packets against a rule-set text.
func (l *ledger) idps(rules string, pkts [][]byte) error {
	parsedRules, err := idps.ParseRules(rules)
	if err != nil {
		return err
	}
	eng, err := idps.NewEngine(parsedRules)
	if err != nil {
		return err
	}
	ips, err := parsed(pkts)
	if err != nil {
		return err
	}
	busy, n, err := repeat(func() (time.Duration, int, error) {
		t := time.Now()
		for _, ip := range ips {
			eng.Evaluate(ip)
		}
		return time.Since(t), len(ips), nil
	})
	if err != nil {
		return err
	}
	l.set("idps.match_ns", float64(busy)/float64(n), n, 1)
	return nil
}

// lookup times the server session table's Get for the workload's clients.
func (l *ledger) lookup(ids []string) error {
	t := dataplane.NewTable[int](dataplane.DefaultShards())
	for i, id := range ids {
		t.Insert(id, i)
	}
	busy, n, err := repeat(func() (time.Duration, int, error) {
		start := time.Now()
		for i := 0; i < 256; i++ {
			if _, ok := t.Get(ids[i%len(ids)]); !ok {
				return 0, 0, fmt.Errorf("client %q missing", ids[i%len(ids)])
			}
		}
		return time.Since(start), 256, nil
	})
	if err != nil {
		return err
	}
	l.set("dataplane.lookup_ns", float64(busy)/float64(n), n, 1)
	return nil
}

// sendFrame times udptransport.Link.SendFrame for frames of the sealed
// sizes of the packets, into a loopback socket that discards them.
func (l *ledger) sendFrame(pkts [][]byte) error {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1<<16)
		for {
			if _, err := sink.Read(buf); err != nil {
				return
			}
		}
	}()
	defer func() {
		sink.Close()
		wg.Wait()
	}()
	link, err := udptransport.Dial(context.Background(), sink.LocalAddr().String())
	if err != nil {
		return err
	}
	defer link.Close()
	sess, err := wire.NewSession(bytes.Repeat([]byte{0x5a}, 32), wire.ModeEncrypted, true)
	if err != nil {
		return err
	}
	frames := make([][]byte, len(pkts))
	for i, p := range pkts {
		if frames[i], err = sess.Seal(dataPayload(p)); err != nil {
			return err
		}
	}
	busy, n, err := repeat(func() (time.Duration, int, error) {
		t := time.Now()
		for _, f := range frames {
			if err := link.SendFrame(f); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t), len(frames), nil
	})
	if err != nil {
		return fmt.Errorf("udptransport: %w", err)
	}
	l.set("udptransport.sendframe_us", float64(busy)/float64(n), n, 1e3)
	return nil
}

// swap publishes rounds fresh versions that reach no client, then applies
// each blob on c with Client.ApplyUpdateBlob, timing its decrypt and
// hot-swap phases inside the enclave.
func (l *ledger) swap(d *endbox.Deployment, c *endbox.Client, firstVersion uint64, rounds int,
	next func(i int) endbox.Pipeline, ruleSets map[string]string) error {
	var dec, hot time.Duration
	for i := 0; i < rounds; i++ {
		v := firstVersion + uint64(i)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := d.Rollout(ctx, endbox.Rollout{
			Version:  v,
			Pipeline: next(i),
			RuleSets: ruleSets,
			Target:   endbox.Selector{Labels: map[string]string{"perfbench": "ledger-only"}},
		})
		cancel()
		if err != nil {
			return fmt.Errorf("ledger rollout v%d: %w", v, err)
		}
		blob, err := d.FetchConfig(v)
		if err != nil {
			return err
		}
		st, err := c.ApplyUpdateBlob(blob)
		if err != nil {
			return fmt.Errorf("apply v%d: %w", v, err)
		}
		dec += st.Decrypt
		hot += st.Hotswap
	}
	l.set("config.decrypt_us", float64(dec)/float64(rounds), rounds, 1e3)
	l.set("click.hotswap_us", float64(hot)/float64(rounds), rounds, 1e3)
	return nil
}

// common runs the single-layer measurements every workload reports, on
// that workload's packets, pipeline and rule sets.
func (l *ledger) common(pkts [][]byte, burst int, p endbox.Pipeline, ruleSets map[string]string, idsRules string, ids []string) error {
	for _, f := range []func() error{
		func() error { return l.wire(pkts) },
		func() error { return l.slab(pkts, burst) },
		l.ecall,
		func() error { return l.click(p, ruleSets, pkts) },
		func() error { return l.flowBind(pkts) },
		func() error { return l.idps(idsRules, pkts) },
		func() error { return l.lookup(ids) },
		func() error { return l.sendFrame(pkts) },
	} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// probeRounds is how many control-plane probes a workload without a
// control plane of its own runs after its timed window.
const probeRounds = 3

// controlProbe gives the control-plane spans samples on a workload whose
// timed loop has no control plane: traced, probeRounds times, it joins a
// probe client with the stock firewall, rolls a fresh rule out to that
// client alone and waits until it applies it, resumes it from its ticket,
// and removes it. Versions start at firstVersion.
func (l *ledger) controlProbe(d *endbox.Deployment, firstVersion uint64) error {
	const id = "probe"
	spec := hwSpec(mbox.Stock(mbox.UseCaseFW), nil)
	l.tr.on.Store(true)
	defer l.tr.on.Store(false)
	defer d.RemoveClient(id)
	for i := 0; i < probeRounds; i++ {
		c, err := joinTimed(l.tr, d, id, spec)
		if err != nil {
			return fmt.Errorf("probe join: %w", err)
		}
		v := firstVersion + uint64(i)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := l.tr.now()
		_, err = d.Rollout(ctx, endbox.Rollout{
			Version:  v,
			Pipeline: mbox.Chain(mbox.Firewall(fmt.Sprintf("drop src host 203.0.113.%d", 1+i), "allow all")),
			Target:   endbox.Selector{IDs: []string{id}},
		})
		for err == nil && c.AppliedVersion() != v {
			if err = c.LastUpdateError(); err == nil {
				err = ctx.Err()
			}
			time.Sleep(20 * time.Microsecond)
		}
		l.tr.record("core.rollout", 0, start, l.tr.now())
		if err != nil {
			cancel()
			return fmt.Errorf("probe rollout v%d: %w", v, err)
		}
		state, err := d.ResumeState(id)
		if err == nil {
			start = l.tr.now()
			_, err = d.ResumeClient(ctx, state, spec)
			l.tr.record("core.resume", 0, start, l.tr.now())
		}
		cancel()
		if err != nil {
			return fmt.Errorf("probe resume: %w", err)
		}
		d.RemoveClient(id)
	}
	return nil
}

// communityRules is the rule-set text IDS layers are timed against on
// workloads whose pipeline carries no IDS of its own.
func communityRules() string { return core.CommunityRuleSets()["community"] }
