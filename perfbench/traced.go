package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"endbox"
	"endbox/internal/udptransport"
)

// transparencyOps is how many operations per driver the traced and the
// untraced pass of the transparency check each run; transparencyTries
// bounds how often a pair of passes spoiled by a failed operation is
// run again.
const (
	transparencyOps   = 5
	transparencyTries = 8
)

// counters are program counters read from outside between passes.
type counters struct {
	transitions, ecalls uint64 // summed over the workload's client enclaves
	packets             uint64 // IP packets the clients handed to SendPacket(s)
	shed                uint64
	arq                 udptransport.ARQStats
	// exact names the counters that must move identically on two passes
	// of the same operations, with or without tracing.
	exact map[string]uint64
}

// readCounters reads the deployment-wide counters; clients are the live
// clients whose enclave counters count.
func readCounters(e *env, clients []*endbox.Client, packets uint64) counters {
	c := counters{packets: packets, shed: e.d.AggregateStats().Shed, arq: e.arq()}
	for _, cl := range clients {
		if cl != nil {
			st := cl.EnclaveStats()
			c.transitions += st.Transitions
			c.ecalls += st.Ecalls
		}
	}
	c.exact = map[string]uint64{
		"sgx.transitions":    c.transitions,
		"dataplane.shed":     c.shed,
		"arq.transfers_sent": c.arq.TransfersSent,
		"arq.segments_sent":  c.arq.SegmentsSent,
		"arq.retransmits":    c.arq.Retransmits + c.arq.FastRetransmit,
		"arq.dup_segments":   c.arq.DupSegments,
		"arq.transfers_fail": c.arq.TransfersFail,
	}
	return c
}

// diff returns the exact counters' growth from a to b.
func diff(a, b counters) map[string]uint64 {
	d := make(map[string]uint64, len(b.exact))
	for k, v := range b.exact {
		d[k] = v - a.exact[k]
	}
	return d
}

// transparency runs the same number of operations untraced and traced and
// requires the exact counters to move identically: otherwise the timing
// hooks change what the program does and the trace measures another
// program. A pair of passes with a failed operation is not comparable (a
// failure retransmits and re-acks), so it is run again, up to
// transparencyTries times, and the check says when no pair was clean.
func transparency(w workload, tr *tracer) (string, error) {
	failed := 0
	for try := 0; try < transparencyTries; try++ {
		c0 := w.counters()
		a := closedLoop(w.drivers(), 0, transparencyOps, nil, w.op)
		w.settle()
		c1 := w.counters()
		tr.on.Store(true)
		b := closedLoop(w.drivers(), 0, transparencyOps, nil, w.op)
		w.settle()
		tr.on.Store(false)
		c2 := w.counters()
		if a.failed+b.failed > 0 {
			failed += a.failed + b.failed
			continue
		}
		off, on := diff(c0, c1), diff(c1, c2)
		var names, bad []string
		for k := range off {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if off[k] != on[k] {
				bad = append(bad, fmt.Sprintf("%s untraced %d traced %d", k, off[k], on[k]))
			}
		}
		if len(bad) > 0 {
			return "", fmt.Errorf("tracing changed the program's counters over %d operations: %s",
				a.attempted, strings.Join(bad, "; "))
		}
		return fmt.Sprintf("transparency check passed: %s equal over %d untraced and %d traced operations (%d earlier operations failed)",
			strings.Join(names, ", "), a.attempted, b.attempted, failed), nil
	}
	return fmt.Sprintf("transparency check skipped: each of %d tries had a failed operation (%d in all)", transparencyTries, failed), nil
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// measureTraced is the traced run. It sets the workload up once, checks
// that tracing leaves the program's counters alone, then drives half the
// time untraced (allocations, GC and counters per operation come from
// this half) and half traced (the spans), and last times each layer on
// the workload's own inputs.
func measureTraced(w workload, spec *benchSpec, seconds int, spanPath string) (*result, error) {
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	note, checkErr := transparency(w, tr)
	notes := []string{note}

	// The untraced half starts with a forced collection, and its GC pause
	// counts that collection too, so the figure never reads a flat zero
	// when the half itself happens not to collect.
	half := time.Duration(seconds) * time.Second / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runtime.GC()
	c0 := w.counters()
	a := closedLoop(w.drivers(), half, 0, nil, w.op)
	runtime.ReadMemStats(&m1)
	c1 := w.counters()
	before := map[string]int{}
	for _, s := range spanMetrics {
		before[s.span] = tr.count(s.span)
	}
	tr.on.Store(true)
	b := closedLoop(w.drivers(), half, 0, nil, w.op)
	tr.on.Store(false)
	w.settle()
	c2 := w.counters()
	checkErr = errors.Join(checkErr, w.check())
	if a.ops == 0 || b.ops == 0 {
		return nil, fmt.Errorf("no operation completed (untraced %d, traced %d)", a.ops, b.ops)
	}

	rep := newReport(spec.PerLayer)
	l := &ledger{rep: rep, tr: tr, costs: map[string]float64{}, spanPerOp: map[string]float64{},
		ecallsPerOp: float64(c1.ecalls-c0.ecalls) / float64(a.ops)}
	for _, s := range spanMetrics {
		l.spanPerOp[s.metric] = float64(tr.count(s.span)-before[s.span]) / float64(b.ops)
	}
	terms, err := w.ledger(l)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	// Span metrics report the median; the ledger sums means.
	for _, s := range spanMetrics {
		d := tr.durations(s.span)
		rep.set(s.metric, median(d)/1e3, len(d))
		l.costs[s.metric] = mean(d)
	}
	for i := range terms {
		terms[i].costNs = l.costs[terms[i].layer]
	}

	pkts := c1.packets - c0.packets
	perPkt := 0.0
	if pkts > 0 {
		perPkt = float64(c1.transitions-c0.transitions) / float64(pkts)
	}
	rep.set("sgx.transitions_per_pkt", perPkt, int(pkts))
	rep.set("dataplane.shed", float64(c2.shed-c0.shed), a.ops+b.ops)
	rep.set("udptransport.retransmits", float64(c2.arq.Retransmits+c2.arq.FastRetransmit-c0.arq.Retransmits-c0.arq.FastRetransmit), a.ops+b.ops)
	rep.set("udptransport.dup_segments", float64(c2.arq.DupSegments-c0.arq.DupSegments), a.ops+b.ops)
	rep.set("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(a.ops), a.ops)
	rep.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))

	meanA, meanB := mean(a.lat()), mean(b.lat())
	rep.set("ledger.residual_frac", residualFrac(meanA, terms), a.ops)
	rep.set("trace.overhead_frac", (meanB-meanA)/meanA, b.ops)
	ff, err := failedFrac(a.attempted+b.attempted, a.failed+b.failed)
	if err != nil {
		return nil, err
	}
	rep.set("failed_frac", ff, a.attempted+b.attempted)

	notes = append(notes, fmt.Sprintf("untraced half: %d ops, mean %.1f us; traced half: %d ops, mean %.1f us",
		a.ops, meanA/1e3, b.ops, meanB/1e3))
	for _, t := range terms {
		notes = append(notes, fmt.Sprintf("ledger: %-26s %12.1f ns x %8.3f per op = %12.1f ns (%.1f%% of %.1f ns)",
			t.layer, t.costNs, t.perOp, t.costNs*t.perOp, 100*t.costNs*t.perOp/meanA, meanA))
	}
	if n, ok := w.(noter); ok {
		notes = append(notes, n.notes()...)
	}
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	notes = append(notes, "spans written to "+spanPath)
	all := runResult{ops: a.ops + b.ops, attempted: a.attempted + b.attempted, failed: a.failed + b.failed}
	return finish(rep, all, checkErr, notes)
}

// spanMetrics are the per-layer metrics taken from spans: the median span
// duration, recorded by the benchmark around facade calls, at observer
// callbacks and in the server endpoint wrapper.
var spanMetrics = []struct{ metric, span string }{
	{"core.send_us", "core.send"},
	{"core.egress_us", "core.egress"},
	{"core.ingress_us", "core.ingress"},
	{"core.join_us", "core.join"},
	{"core.resume_us", "core.resume"},
	{"core.rollout_us", "core.rollout"},
	{"attest.enroll_us", "attest.enroll"},
	{"vpn.hello_us", "vpn.hello"},
	{"lifecycle.resume_us", "lifecycle.resume"},
	{"config.fetch_us", "config.fetch"},
}
