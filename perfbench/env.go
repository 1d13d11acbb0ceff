package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"endbox"
	"endbox/internal/attest"
	"endbox/internal/core"
	"endbox/internal/udptransport"
	"endbox/internal/vpn"
)

// hwSpec is the client configuration every workload uses: hardware-mode
// enclaves whose crossings burn real CPU (sgx.DefaultTransitionCost each).
func hwSpec(p endbox.Pipeline, ruleSets map[string]string) endbox.ClientSpec {
	return endbox.ClientSpec{Mode: endbox.ModeHardware, BurnCPU: true, Pipeline: p, ExtraRuleSets: ruleSets}
}

// joinTimed adds a client, recorded as a core.join span when tracing. A
// try that misses its deadline is tried again, up to joinTries times: a
// join outside a workload's timed loop must get through the port-reuse
// failures the loop itself counts (README.md).
func joinTimed(tr *tracer, d *endbox.Deployment, id string, spec endbox.ClientSpec) (*endbox.Client, error) {
	const joinTries, joinTry = 5, 5 * time.Second
	var err error
	for try := 0; try < joinTries; try++ {
		ctx, cancel := context.WithTimeout(context.Background(), joinTry)
		start := tr.now()
		var c *endbox.Client
		c, err = d.AddClient(ctx, id, spec)
		cancel()
		if err == nil {
			tr.record("core.join", 0, start, tr.now())
			return c, nil
		}
	}
	return nil, fmt.Errorf("join %s: %w", id, err)
}

// envConfig selects how a workload's deployment is built.
type envConfig struct {
	udp     bool // UDP loopback instead of the in-process transport
	workers int  // UDP ingress workers
	echo    bool // the managed network echoes delivered packets
	obs     endbox.ObserverFuncs
	tr      *tracer // non-nil: the server endpoint is wrapped for timing
	opID    *atomic.Uint64
}

// env is one deployment under test plus the hooks the benchmark reads it by.
type env struct {
	d   *endbox.Deployment
	udp *udpTransport // nil on the in-process transport
}

func newEnv(c envConfig) (*env, error) {
	opts := []endbox.Option{endbox.WithObserver(c.obs), endbox.WithEncryptedConfigs()}
	e := &env{}
	if c.udp {
		e.udp = &udpTransport{Transport: endbox.NewUDPTransport("127.0.0.1:0"), tr: c.tr, opID: c.opID}
		opts = append(opts, endbox.WithTransport(e.udp), endbox.WithUDPWorkers(c.workers))
	} else {
		opts = append(opts, endbox.WithTransport(&inprocTransport{
			InProcessTransport: core.NewInProcessTransport(), tr: c.tr, opID: c.opID}))
	}
	if c.echo {
		opts = append(opts, endbox.WithEchoNetwork())
	}
	d, err := endbox.New(opts...)
	if err != nil {
		return nil, err
	}
	e.d = d
	return e, nil
}

func (e *env) close() { e.d.Close() }

// arq sums the ARQ counters of the server and of every client link the
// deployment has opened (zero on the in-process transport).
func (e *env) arq() udptransport.ARQStats {
	if e.udp == nil {
		return udptransport.ARQStats{}
	}
	s := e.udp.ARQStats()
	e.udp.mu.Lock()
	defer e.udp.mu.Unlock()
	addARQ(&s, e.udp.closed)
	for l := range e.udp.live {
		addARQ(&s, l.ARQStats())
	}
	return s
}

func addARQ(s *udptransport.ARQStats, o udptransport.ARQStats) {
	s.TransfersSent += o.TransfersSent
	s.TransfersDone += o.TransfersDone
	s.TransfersFail += o.TransfersFail
	s.SegmentsSent += o.SegmentsSent
	s.Retransmits += o.Retransmits
	s.FastRetransmit += o.FastRetransmit
	s.AcksSent += o.AcksSent
	s.DupSegments += o.DupSegments
	s.GapProbes += o.GapProbes
}

// udpTransport is the UDP transport as the deployment sees it. Every
// method and optional interface of *udptransport.Transport is promoted
// unchanged; BindServer installs the timing endpoint when tracing, and
// Link hands out counted links so their ARQ counters can be read.
type udpTransport struct {
	*udptransport.Transport
	tr   *tracer
	opID *atomic.Uint64

	mu     sync.Mutex
	live   map[*countedLink]struct{}
	closed udptransport.ARQStats // counters of links already closed
	opened int
}

func (t *udpTransport) BindServer(ep core.ServerEndpoint) error {
	return t.Transport.BindServer(timed(ep, t.tr, t.opID))
}

func (t *udpTransport) Link(ctx context.Context, clientID string) (core.ClientLink, error) {
	l, err := t.Transport.Link(ctx, clientID)
	if err != nil {
		return nil, err
	}
	ul, ok := l.(*udptransport.Link)
	if !ok {
		return l, nil
	}
	cl := &countedLink{Link: ul, t: t}
	t.mu.Lock()
	if t.live == nil {
		t.live = map[*countedLink]struct{}{}
	}
	t.live[cl] = struct{}{}
	t.opened++
	t.mu.Unlock()
	return cl, nil
}

// countedLink is a client link whose ARQ counters outlive it. Embedding
// promotes every method of *udptransport.Link, so the deployment finds
// the same optional interfaces (ControlLink, ResumeLink,
// BatchClientLink) on it as on the bare link.
type countedLink struct {
	*udptransport.Link
	t *udpTransport
}

func (l *countedLink) Close() error {
	err := l.Link.Close()
	l.t.mu.Lock()
	if _, ok := l.t.live[l]; ok {
		delete(l.t.live, l)
		addARQ(&l.t.closed, l.Link.ARQStats())
	}
	l.t.mu.Unlock()
	return err
}

// inprocTransport is the in-process transport with the same timing hook.
type inprocTransport struct {
	*core.InProcessTransport
	tr   *tracer
	opID *atomic.Uint64
}

func (t *inprocTransport) BindServer(ep core.ServerEndpoint) error {
	return t.InProcessTransport.BindServer(timed(ep, t.tr, t.opID))
}

// timed wraps the deployment's server endpoint for a traced run.
func timed(ep core.ServerEndpoint, tr *tracer, opID *atomic.Uint64) core.ServerEndpoint {
	d, ok := ep.(*core.Deployment)
	if tr == nil || !ok {
		return ep
	}
	return &timedEndpoint{Deployment: d, tr: tr, opID: opID}
}

// timedEndpoint times the server side of the control plane. Embedding the
// deployment promotes every other method, FrameShed (the UDP transport's
// optional shed counter) included, so the transport sees the same
// endpoint with or without tracing.
type timedEndpoint struct {
	*core.Deployment
	tr   *tracer
	opID *atomic.Uint64
}

func (e *timedEndpoint) span(name string, start int64) {
	e.tr.record(name, e.opID.Load(), start, e.tr.now())
}

func (e *timedEndpoint) Enroll(q attest.Quote) (*attest.Provision, error) {
	start := e.tr.now()
	defer e.span("attest.enroll", start)
	return e.Deployment.Enroll(q)
}

func (e *timedEndpoint) AcceptHello(h *vpn.ClientHello) (*vpn.ServerHello, error) {
	start := e.tr.now()
	defer e.span("vpn.hello", start)
	return e.Deployment.AcceptHello(h)
}

func (e *timedEndpoint) AcceptResume(r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	start := e.tr.now()
	defer e.span("lifecycle.resume", start)
	return e.Deployment.AcceptResume(r)
}

func (e *timedEndpoint) FetchConfig(version uint64) ([]byte, error) {
	start := e.tr.now()
	defer e.span("config.fetch", start)
	return e.Deployment.FetchConfig(version)
}

// rssMB reads the process's resident set size (VmRSS) in MB.
func rssMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// hostSample is one reading of the host's CPU accounting and of the
// process's memory.
type hostSample struct {
	at           time.Time
	total, steal uint64  // host CPU time in jiffies: all, and stolen by the hypervisor
	rss          float64 // MB
}

// A measured run is held back while the host is busy elsewhere: when the
// hypervisor stole more than stealLimit of the host's CPU over the last
// stealSpan, drivers start no new operation until it stops, for at most
// maxPause per run. The paused time is not measured time.
const (
	hostEvery  = 50 * time.Millisecond
	stealSpan  = 500 * time.Millisecond
	stealLimit = 0.04
	maxPause   = 10 * time.Second
)

// hostMonitor samples the host every hostEvery during a measured run and
// pauses the run's drivers while the hypervisor steals CPU.
type hostMonitor struct {
	done chan struct{}
	out  chan error

	samples []hostSample // owned by the monitor goroutine until stop returns

	mu     sync.Mutex
	cond   *sync.Cond
	paused bool
	since  time.Time     // start of the current pause
	total  time.Duration // length of the finished pauses
}

func startHostMonitor() *hostMonitor {
	m := &hostMonitor{done: make(chan struct{}), out: make(chan error, 1)}
	m.cond = sync.NewCond(&m.mu)
	go m.loop()
	return m
}

func (m *hostMonitor) loop() {
	var firstErr error
	read := func() {
		s := hostSample{at: time.Now()}
		s.total, s.steal = cpuTimes()
		rss, err := rssMB()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		s.rss = rss
		m.samples = append(m.samples, s)
		m.gate(s)
	}
	t := time.NewTicker(hostEvery)
	defer t.Stop()
	for read(); ; read() {
		select {
		case <-m.done:
			read()
			m.resume(time.Now())
			m.out <- firstErr
			return
		case <-t.C:
		}
	}
}

// gate pauses or resumes the drivers after the sample s.
func (m *hostMonitor) gate(s hostSample) {
	back := m.samples[0]
	for i := len(m.samples) - 1; i >= 0; i-- {
		if s.at.Sub(m.samples[i].at) >= stealSpan {
			back = m.samples[i]
			break
		}
	}
	busy := s.total > back.total && float64(s.steal-back.steal) > stealLimit*float64(s.total-back.total)
	m.mu.Lock()
	spent := m.total
	if m.paused {
		spent += s.at.Sub(m.since)
	}
	switch {
	case !m.paused && busy && spent < maxPause:
		m.paused, m.since = true, s.at
	case m.paused && (!busy || spent >= maxPause):
		m.mu.Unlock()
		m.resume(s.at)
		return
	}
	m.mu.Unlock()
}

func (m *hostMonitor) resume(at time.Time) {
	m.mu.Lock()
	if m.paused {
		m.paused = false
		m.total += at.Sub(m.since)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// wait blocks while the run is paused. A nil monitor never pauses.
func (m *hostMonitor) wait() {
	if m == nil {
		return
	}
	m.mu.Lock()
	for m.paused {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// pausedFor is the time the run has spent paused so far.
func (m *hostMonitor) pausedFor() time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.paused {
		return m.total + time.Since(m.since)
	}
	return m.total
}

// stop ends the monitor and returns its samples.
func (m *hostMonitor) stop() ([]hostSample, error) {
	close(m.done)
	err := <-m.out
	return m.samples, err
}

// cpuTimes reads the host's total and stolen CPU time from /proc/stat
// (zero when it cannot).
func cpuTimes() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of the host's CPU time the hypervisor stole
// between from and to, read from the samples that bracket the span.
func stealShare(samples []hostSample, from, to time.Time) float64 {
	if len(samples) == 0 {
		return 0
	}
	a, b := samples[0], samples[len(samples)-1]
	for _, s := range samples {
		if !s.at.After(from) {
			a = s
		}
		if !s.at.Before(to) {
			b = s
			break
		}
	}
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSS is the highest resident set size among the samples taken up to
// the end of the measured window; later ones see the benchmark gathering
// its results.
func peakRSS(samples []hostSample, end time.Time) float64 {
	peak := 0.0
	for _, s := range samples {
		if !s.at.After(end) {
			peak = max(peak, s.rss)
		}
	}
	return peak
}
