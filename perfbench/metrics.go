package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is a handful of outliers, not a percentile.
const minBeyond = 10

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the workloads this program accepts and the
// metrics each run must print, by name and unit.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// hasWorkload reports whether name is a workload BENCHMARK.json declares.
func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricOut is one metric as printed on the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics. Only names the spec declares are
// accepted, and finish refuses a report that misses any of them, so the
// printed set always matches BENCHMARK.json exactly.
type report struct {
	specs   []metricSpec
	values  map[string]float64
	samples map[string]int
	errs    []string
}

func newReport(specs []metricSpec) *report {
	return &report{specs: specs, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *report) set(name string, v float64, n int) {
	for _, s := range r.specs {
		if s.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.errs = append(r.errs, fmt.Sprintf("metric %s is not a number (%v)", name, v))
				return
			}
			r.values[name] = v
			r.samples[name] = n
			return
		}
	}
	r.errs = append(r.errs, fmt.Sprintf("unknown metric %q", name))
}

// finish returns the metrics for the result line, or an error naming every
// unknown, invalid or missing metric.
func (r *report) finish() (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(r.specs))
	errs := append([]string(nil), r.errs...)
	for _, s := range r.specs {
		v, ok := r.values[s.Name]
		if !ok {
			errs = append(errs, fmt.Sprintf("metric %s was not measured", s.Name))
			continue
		}
		out[s.Name] = metricOut{Value: v, Unit: s.Unit}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return out, nil
}

// lines renders the report for humans: every metric with its unit and the
// number of samples behind it.
func (r *report) lines() []string {
	var ls []string
	for _, s := range r.specs {
		v, ok := r.values[s.Name]
		if !ok {
			continue
		}
		ls = append(ls, fmt.Sprintf("%-28s %14.4f %-6s n=%d", s.Name, v, s.Unit, r.samples[s.Name]))
	}
	return ls
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// nearest rank, and whether at least minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// nearestRank is the 1-based rank of the p-th percentile of n samples:
// ceil(p/100 * n), computed without the rounding error of p/100 (which
// would put p99.9 of 10000 samples at rank 9991).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the tail percentiles a report may name, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least minBeyond of n samples above it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		rank := nearestRank(p, n)
		if rank >= 1 && n-rank >= minBeyond {
			return p
		}
	}
	return 0
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// failedFrac is failed operations over attempted ones. The base is every
// operation started, failures included, so a run that fails more does not
// shrink its own denominator.
func failedFrac(attempted, failed int) (float64, error) {
	if attempted < 1 {
		return 0, fmt.Errorf("no operation attempted")
	}
	if failed < 0 || failed > attempted {
		return 0, fmt.Errorf("%d failed of %d attempted", failed, attempted)
	}
	return float64(failed) / float64(attempted), nil
}

// ledgerTerm is one layer's share of an operation: the layer's measured
// cost per call times how many calls one operation makes.
type ledgerTerm struct {
	layer  string
	costNs float64
	perOp  float64
}

// residualFrac is the share of the end-to-end time per operation that the
// layer terms do not explain: (e2e - sum(cost x calls)) / e2e. It is
// negative when the layers claim more time than the operation took.
func residualFrac(e2eNs float64, terms []ledgerTerm) float64 {
	if e2eNs <= 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, t := range terms {
		sum += t.costNs * t.perOp
	}
	return (e2eNs - sum) / e2eNs
}
