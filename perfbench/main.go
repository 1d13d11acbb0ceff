// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against a real endbox.Deployment for a fixed time, checks
// the outputs, and prints every metric BENCHMARK.json declares: the
// end-to-end metrics on an untraced run (--trace 0), the per-layer ledger
// on a traced one (--trace 1). The last line of standard output is the
// result as one JSON object; the lines before it, prefixed "#", repeat
// each metric with its sample count and describe the environment.
//
// Build and run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload imix-echo-udp --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// A run builds its deployment at least minSetups times, and more while
// the builds took less than setupBudget in total; setup_s is their median
// and the last build is the one measured.
const (
	minSetups   = 3
	maxSetups   = 41
	setupBudget = 2 * time.Second
)

// workload is one named benchmark workload: a deployment, the clients on
// it and the closed-loop operation its drivers repeat.
type workload interface {
	// setup builds the deployment, joins the clients and warms up.
	setup(tr *tracer) error
	// drivers is the number of driver goroutines, one per client.
	drivers() int
	// op runs one operation on driver g.
	op(g, seq int) outcome
	// settle waits until no delivery is still in flight.
	settle()
	// check verifies everything the workload delivered so far.
	check() error
	// counters reads the counters the traced and untraced runs must agree on.
	counters() counters
	// ledger measures the per-layer costs on the workload's own inputs and
	// returns the layer terms one operation is made of.
	ledger(l *ledger) ([]ledgerTerm, error)
	close()
}

// factories builds each workload's inputs from the seed.
var factories = map[string]func(seed int64) workload{
	"bulk-1500":         newBulk,
	"imix-echo-udp":     newIMIX,
	"churn-rollout":     newChurn,
	"churn-rollout-udp": newChurnUDP,
}

// ungated names the workloads that run by hand but are not in
// BENCHMARK.json: they fail operations at seed, and a gated workload must
// fail none.
var ungated = map[string]bool{"churn-rollout-udp": true}

// newWorkload returns the named workload, refusing names BENCHMARK.json
// does not declare (ungated ones apart) or this program does not implement.
func newWorkload(spec *benchSpec, name string, seed int64) (workload, error) {
	f, ok := factories[name]
	if !ok || !(spec.hasWorkload(name) || ungated[name]) {
		var known []string
		for _, w := range spec.Workloads {
			known = append(known, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(known, ", "))
	}
	return f(seed), nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	out := fs.String("out", ".bench_build", "directory for span files")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(spec, *name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	printEnv(*name, *seed, *seconds, *trace)

	var res *result
	if *trace == 0 {
		res, err = measure(w, spec, *seconds)
	} else {
		res, err = measureTraced(w, spec, *seconds, filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range res.notes {
		fmt.Println("# " + l)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metricOut
	notes             []string
}

func printEnv(name string, seed int64, seconds, trace int) {
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("# go=%s gomaxprocs=%d cpus=%d cpu=%q network=loopback (not a real link)\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// measure is the untraced run: set up several times, then drive the last
// deployment for the given seconds and report the end-to-end metrics.
func measure(w workload, spec *benchSpec, seconds int) (*result, error) {
	var setups []float64
	for total := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget.Seconds()); {
		if len(setups) > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		total += d
	}
	defer w.close()
	// The garbage of the earlier builds goes back to the OS first, so
	// rss_mb is the peak of the deployment being measured.
	debug.FreeOSMemory()
	mon := startHostMonitor()
	r := closedLoop(w.drivers(), time.Duration(seconds)*time.Second, 0, mon, w.op)
	host, err := mon.stop()
	if err != nil {
		return nil, err
	}
	w.settle()
	checkErr := w.check()

	chunks := latencyChunks(r.samples, maxChunks)
	if chunks == nil {
		checkErr = errors.Join(checkErr, fmt.Errorf("%d operations leave fewer than %d samples beyond p90", r.ops, minBeyond))
		chunks = []chunk{{}}
	}
	quiet := quietChunks(chunks, func(from, to time.Duration) float64 {
		return stealShare(host, r.start.Add(from), r.start.Add(to))
	})
	var p50s, p90s []float64
	for _, c := range quiet {
		p50s, p90s = append(p50s, c.p50/1e3), append(p90s, c.p90/1e3)
	}
	rep := newReport(spec.EndToEnd)
	rep.set("setup_s", median(setups), len(setups))
	secs := r.elapsed.Seconds()
	opsRate, byteRate := closedLoopRates(quiet, w.drivers())
	rep.set("goodput_MBps", byteRate/1e6, r.ops)
	rep.set("ops_per_s", opsRate, r.ops)
	rep.set("p50_us", mean(p50s), r.ops)
	rep.set("p90_us", mean(p90s), r.ops)
	rep.set("rss_mb", peakRSS(host, r.start.Add(r.elapsed+r.paused)), len(host))

	sorted := r.lat()
	sort.Float64s(sorted)
	whole := "whole run"
	qs := []float64{50, 90}
	if tp := tailPercentile(len(sorted)); tp > 90 {
		qs = append(qs, tp)
	}
	for _, q := range qs {
		v, _ := percentile(sorted, q)
		whole += fmt.Sprintf(" p%g %.1f us", q, v/1e3)
	}
	notes := []string{
		fmt.Sprintf("ops=%d attempted=%d failed=%d measured_s=%.3f setups=%d", r.ops, r.attempted, r.failed, secs, len(setups)),
		fmt.Sprintf("paused %.3f s while the hypervisor stole more than %g%% of the host's CPU (at most %v)", r.paused.Seconds(), 100*stealLimit, maxPause),
		fmt.Sprintf("percentiles are means, and rates are taken, over the %d of %d chunks of %d operations with the least stolen CPU; %s (n=%d)",
			len(quiet), len(chunks), r.ops/len(chunks), whole, len(sorted)),
		fmt.Sprintf("whole run: %.2f ops/s, %.4f MB/s of measured time", float64(r.ops)/secs, float64(r.bytes)/secs/1e6),
		fmt.Sprintf("host: %.1f%% of CPU time stolen by the hypervisor during the run",
			100*stealShare(host, r.start, r.start.Add(r.elapsed+r.paused))),
	}
	for _, c := range chunks {
		rate, _ := closedLoopRates([]chunk{c}, w.drivers())
		notes = append(notes, fmt.Sprintf("chunk %6.2f-%6.2f s: p50 %.1f us, p90 %.1f us, %.1f ops/s, stolen %.1f%%", c.from.Seconds(), c.to.Seconds(),
			c.p50/1e3, c.p90/1e3, rate, 100*stealShare(host, r.start.Add(c.from), r.start.Add(c.to))))
	}
	if ff, err := failedFrac(r.attempted, r.failed); err == nil {
		notes = append(notes, fmt.Sprintf("failed_frac = %.6f (%d of %d attempted)", ff, r.failed, r.attempted))
	}
	if n, ok := w.(noter); ok {
		notes = append(notes, n.notes()...)
	}
	return finish(rep, r, checkErr, notes)
}

// noter is implemented by workloads with more to say than the metrics.
type noter interface{ notes() []string }

// latencyNote summarises one kind of operation: median, the highest
// percentile the sample count supports, and the failures.
func latencyNote(kind string, lat []float64, failed int) string {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	p50, _ := percentile(s, 50)
	note := fmt.Sprintf("%s: p50=%.3f ms", kind, p50/1e6)
	if tp := tailPercentile(len(s)); tp > 50 {
		v, _ := percentile(s, tp)
		note += fmt.Sprintf(" p%g=%.3f ms", tp, v/1e6)
	}
	return note + fmt.Sprintf(" n=%d failed=%d", len(s), failed)
}

func finish(rep *report, r runResult, checkErr error, notes []string) (*result, error) {
	metrics, err := rep.finish()
	if err != nil {
		return nil, err
	}
	res := &result{correct: checkErr == nil && r.ops > 0, attempted: r.attempted, failed: r.failed, metrics: metrics}
	res.notes = append(notes, rep.lines()...)
	if checkErr != nil {
		res.notes = append(res.notes, "CHECK FAILED: "+checkErr.Error())
	}
	if r.ops == 0 {
		res.notes = append(res.notes, "CHECK FAILED: no operation completed")
	}
	if r.attempted < 1 {
		res.attempted = 1 // the result line needs attempted >= 1; correct is false here
	}
	return res, nil
}

// seeded returns the input generator for a workload seed.
func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
