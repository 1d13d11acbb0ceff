package main

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRankAndSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		enough bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true},   // 10 samples above rank 90
		{99, 90, 90, false},   // rank ceil(89.1) = 90 leaves 9 beyond
		{1000, 99, 990, true}, // exactly 10 beyond
		{999, 99, 990, false}, // rank ceil(989.01) = 990 leaves 9 beyond
		{1, 50, 1, false},
	} {
		got, enough := percentile(ramp(tc.n), tc.p)
		if got != tc.want || enough != tc.enough {
			t.Errorf("percentile(1..%d, p%g) = %v, %v; want %v, %v", tc.n, tc.p, got, enough, tc.want, tc.enough)
		}
	}
	if _, enough := percentile(nil, 50); enough {
		t.Error("percentile of no samples claims enough samples")
	}
}

func TestTailPercentileIsHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 75},
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 {
			if _, enough := percentile(ramp(tc.n), p); !enough {
				t.Errorf("tailPercentile(%d) = p%g, which percentile says lacks samples", tc.n, p)
			}
		}
	}
}

func TestFailedFracCountsAgainstAttempted(t *testing.T) {
	got, err := failedFrac(40, 10)
	if err != nil || got != 0.25 {
		t.Fatalf("failedFrac(40, 10) = %v, %v; want 0.25 (failures over all attempts, not over successes)", got, err)
	}
	if got, _ := failedFrac(7, 0); got != 0 {
		t.Errorf("failedFrac(7, 0) = %v, want 0", got)
	}
	for _, bad := range [][2]int{{0, 0}, {3, 4}, {3, -1}} {
		if _, err := failedFrac(bad[0], bad[1]); err == nil {
			t.Errorf("failedFrac(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

func TestResidualFracSumsCostTimesCalls(t *testing.T) {
	terms := []ledgerTerm{
		{layer: "wire.seal_ns", costNs: 4000, perOp: 32},  // 128 us
		{layer: "wire.open_ns", costNs: 4000, perOp: 32},  // 128 us
		{layer: "sgx.ecall_ns", costNs: 5000, perOp: 0.5}, // 2.5 us
	}
	got := residualFrac(300000, terms)
	if want := (300000.0 - 258500) / 300000; math.Abs(got-want) > 1e-12 {
		t.Fatalf("residualFrac = %v, want %v", got, want)
	}
	if got := residualFrac(200000, terms); got >= 0 {
		t.Errorf("layers claiming more than the operation took must give a negative residual, got %v", got)
	}
	if got := residualFrac(1000, nil); got != 1 {
		t.Errorf("no layers leave the whole operation unexplained: got %v, want 1", got)
	}
	if !math.IsNaN(residualFrac(0, terms)) {
		t.Error("a zero end-to-end time has no residual")
	}
}

func TestReportRejectsUnknownAndMissingMetrics(t *testing.T) {
	specs := []metricSpec{{Name: "ops_per_s", Unit: "1/s"}, {Name: "p50_us", Unit: "us"}}
	r := newReport(specs)
	r.set("ops_per_s", 10, 100)
	r.set("p50_us", 5, 100)
	out, err := r.finish()
	if err != nil || out["p50_us"].Unit != "us" || out["ops_per_s"].Value != 10 {
		t.Fatalf("complete report: %v, %v", out, err)
	}

	r = newReport(specs)
	r.set("ops_per_s", 10, 100)
	r.set("p50_us", 5, 100)
	r.set("p99_us", 9, 100)
	if _, err := r.finish(); err == nil || !strings.Contains(err.Error(), `unknown metric "p99_us"`) {
		t.Errorf("unknown metric accepted: %v", err)
	}

	r = newReport(specs)
	r.set("ops_per_s", 10, 100)
	if _, err := r.finish(); err == nil || !strings.Contains(err.Error(), "p50_us was not measured") {
		t.Errorf("missing metric accepted: %v", err)
	}

	r = newReport(specs)
	r.set("ops_per_s", math.NaN(), 0)
	r.set("p50_us", 5, 100)
	if _, err := r.finish(); err == nil {
		t.Error("NaN metric accepted")
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newWorkload(spec, "no-such-workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
	// A workload the program implements but BENCHMARK.json does not
	// declare is refused too: the file is the list of what may run.
	trimmed := *spec
	trimmed.Workloads = trimmed.Workloads[1:]
	if _, err := newWorkload(&trimmed, spec.Workloads[0].Name, 1); err == nil {
		t.Errorf("workload %s accepted though the definition omits it", spec.Workloads[0].Name)
	}
}

func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads)+len(ungated) != len(factories) {
		t.Errorf("BENCHMARK.json declares %d workloads and %d are ungated, the program implements %d",
			len(spec.Workloads), len(ungated), len(factories))
	}
	for _, w := range spec.Workloads {
		if factories[w.Name] == nil || ungated[w.Name] {
			t.Errorf("workload %s has no implementation or is declared ungated", w.Name)
		}
	}
	// Every per-layer metric is produced by the ledger, a span or a
	// counter; keep the three lists in step with the definition.
	have := map[string]bool{}
	for _, s := range spanMetrics {
		have[s.metric] = true
	}
	for _, m := range spec.PerLayer {
		if strings.HasSuffix(m.Name, "_us") && strings.HasPrefix(m.Name, "core.") && !have[m.Name] {
			t.Errorf("span metric %s has no span", m.Name)
		}
	}
}

func TestLatencyChunks(t *testing.T) {
	var samples []sample
	// 4 s run: 200 operations of 1 ms in the first half, 100 of 3 ms in
	// the second, listed out of completion order.
	for i := 0; i < 100; i++ {
		samples = append(samples, sample{end: 2*time.Second + time.Duration(i)*20*time.Millisecond, lat: 3e6, bytes: 100})
	}
	for i := 0; i < 200; i++ {
		samples = append(samples, sample{end: time.Duration(i) * 10 * time.Millisecond, lat: 1e6, bytes: 100})
	}
	// 300 operations make three chunks of 100 in completion order: two
	// fast, one slow. More chunks would leave fewer than 100 in each.
	cs := latencyChunks(samples, 10)
	if len(cs) != 3 || cs[0].p50 != 1e6 || cs[1].p90 != 1e6 || cs[2].p50 != 3e6 || cs[2].p90 != 3e6 {
		t.Errorf("latency chunks: %+v", cs)
	}
	if c := cs[2]; c.ops != 100 || c.busy != 300e6 || c.bytes != 10000 {
		t.Errorf("slow chunk holds %d operations, %v ns, %d bytes; want 100, 3e8, 10000", c.ops, c.busy, c.bytes)
	}
	// A chunk spans from the start of its first operation to the end of
	// its last: the first 100 operations end at 0..990 ms, 1 ms each.
	if cs[0].from != -time.Millisecond || cs[0].to != 990*time.Millisecond {
		t.Errorf("first chunk spans %v..%v, want -1ms..990ms", cs[0].from, cs[0].to)
	}
	if got := latencyChunks(samples, 2); len(got) != 2 {
		t.Errorf("latency chunks ignore their cap: %d", len(got))
	}
	if got := latencyChunks(samples[:minPerChunk-1], 10); got != nil {
		t.Errorf("%d operations cannot support a p90, got %d chunks", minPerChunk-1, len(got))
	}
}

func TestClosedLoopRatesFollowLittlesLaw(t *testing.T) {
	// Two drivers, each chunk 100 operations of 1 ms and 1000 bytes:
	// 2000 operations and 2 MB per second, whatever the chunks' spans.
	cs := []chunk{{ops: 100, busy: 100e6, bytes: 100e3}, {ops: 100, busy: 100e6, bytes: 100e3, from: time.Hour, to: 2 * time.Hour}}
	ops, bytes := closedLoopRates(cs, 2)
	if math.Abs(ops-2000) > 1e-9 || math.Abs(bytes-2e6) > 1e-6 {
		t.Errorf("closedLoopRates = %v ops/s, %v B/s; want 2000, 2e6", ops, bytes)
	}
	if ops, bytes := closedLoopRates([]chunk{{}}, 2); ops != 0 || bytes != 0 {
		t.Errorf("rates of an empty chunk = %v, %v; want 0, 0", ops, bytes)
	}
}

func TestQuietChunksDropTheMostStolen(t *testing.T) {
	cs := []chunk{{p90: 1, to: 1}, {p90: 2, to: 2}, {p90: 3, to: 3}, {p90: 4, to: 4}}
	stolen := map[time.Duration]float64{1: 0.01, 2: 0.12, 3: 0, 4: 0.02}
	kept := quietChunks(cs, func(_, to time.Duration) float64 { return stolen[to] })
	if len(kept) != 2 || kept[0].p90 != 1 || kept[1].p90 != 3 {
		t.Errorf("kept %+v, want the chunks with 1%% and 0%% stolen", kept)
	}
	if kept := quietChunks(cs, func(_, _ time.Duration) float64 { return 0 }); len(kept) != len(cs) {
		t.Errorf("nothing stolen must keep every chunk, kept %d of %d", len(kept), len(cs))
	}
	// Under quietSteal every chunk is quiet, however the shares sort.
	low := map[time.Duration]float64{1: 0.004, 2: 0.009, 3: 0, 4: 0.01}
	if kept := quietChunks(cs, func(_, to time.Duration) float64 { return low[to] }); len(kept) != len(cs) {
		t.Errorf("chunks with at most 1%% stolen must all stay, kept %d of %d", len(kept), len(cs))
	}
}

func TestStealShareBracketsTheSpan(t *testing.T) {
	t0 := time.Unix(1000, 0)
	samples := []hostSample{
		{at: t0, total: 0, steal: 0},
		{at: t0.Add(time.Second), total: 200, steal: 0},
		{at: t0.Add(2 * time.Second), total: 400, steal: 40},
		{at: t0.Add(3 * time.Second), total: 600, steal: 40},
	}
	for _, tc := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, time.Second, 0},
		{time.Second, 2 * time.Second, 0.2},
		{1500 * time.Millisecond, 1700 * time.Millisecond, 0.2}, // bracketed by the 1 s and 2 s samples
		{0, 3 * time.Second, 40.0 / 600},
		{-time.Second, 10 * time.Second, 40.0 / 600}, // clamped to the first and last sample
	} {
		if got := stealShare(samples, t0.Add(tc.from), t0.Add(tc.to)); got != tc.want {
			t.Errorf("stealShare(%v..%v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if got := stealShare(nil, t0, t0); got != 0 {
		t.Errorf("no samples: %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestHostMonitorPausesWhileStolen(t *testing.T) {
	m := &hostMonitor{}
	m.cond = sync.NewCond(&m.mu)
	t0 := time.Unix(1000, 0)
	feed := func(ms int, total, steal uint64) {
		s := hostSample{at: t0.Add(time.Duration(ms) * time.Millisecond), total: total, steal: steal}
		m.samples = append(m.samples, s)
		m.gate(s)
	}
	feed(0, 0, 0)
	feed(500, 100, 1) // 1% stolen: keep going
	if m.paused {
		t.Fatal("paused at 1% stolen")
	}
	feed(1000, 200, 11) // 10% over the last 500 ms: pause
	if !m.paused {
		t.Fatal("not paused at 10% stolen")
	}
	feed(1500, 300, 12) // 1% again: resume after 500 ms paused
	if m.paused || m.total != 500*time.Millisecond {
		t.Fatalf("paused=%v total=%v, want resumed after 500ms", m.paused, m.total)
	}
	// A host that never quietens holds the run back for maxPause at most.
	last := 1500
	for ms := 2000; ms <= 2000+int(2*maxPause/time.Millisecond); ms += 500 {
		feed(ms, uint64(ms/5), uint64(ms/50))
		last = ms
	}
	if m.paused || m.total < maxPause || m.total > maxPause+time.Second {
		t.Errorf("after %d ms of 10%% stolen: paused=%v total=%v, want resumed after ~%v", last, m.paused, m.total, maxPause)
	}
}

func TestLinkTiesServerSpansToTheirFacadeCall(t *testing.T) {
	spans := []span{
		{Name: "attest.enroll", Op: 7, Start: 10, End: 20},
		{Name: "core.join", Op: 7, Start: 0, End: 100},
		{Name: "core.join", Op: 8, Start: 0, End: 100}, // another operation
		{Name: "config.fetch", Op: 7, Start: 120, End: 130},
		{Name: "core.rollout", Op: 7, Start: 110, End: 200},
		{Name: "core.send", Op: 7, Start: 15, End: 18},   // data path: no parent
		{Name: "vpn.hello", Op: 7, Start: 150, End: 160}, // outside every join
	}
	link(spans)
	for i, want := range []int{1, -1, -1, 4, -1, -1, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s) parent %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
}
