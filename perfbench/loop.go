package main

import (
	"sort"
	"sync"
	"time"
)

// outcome is what one operation of a workload reports.
type outcome struct {
	ok        bool   // the operation completed within its deadline
	bytes     uint64 // IP bytes it delivered (both directions)
	attempted int    // operations counted in attempted/failed (0 means 1)
	failed    int    // of those, how many failed (0 or 1 when attempted is 0)
}

// sample is one successful operation.
type sample struct {
	end   time.Duration // completion, from the start of the run
	lat   float64       // ns
	bytes uint64
}

// runResult aggregates a closed-loop run.
type runResult struct {
	start     time.Time
	elapsed   time.Duration // measured time: wall time less pauses
	paused    time.Duration
	samples   []sample // successful operations, in no particular order
	ops       int      // successful operations
	attempted int
	failed    int
	bytes     uint64
}

// lat returns the latencies (ns) of the successful operations.
func (r runResult) lat() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.lat
	}
	return out
}

// sampleBlock is how many samples a driver stores per allocation. The
// store grows by whole blocks, never by copying, so the benchmark's own
// memory rises evenly through a run instead of jumping when a slice
// doubles, and rss_mb does not depend on where such a jump fell.
const sampleBlock = 4096

// closedLoop drives op on drivers goroutines, each sending its next
// operation only after the previous one finished, until run has been
// measured or, when maxOps > 0, each goroutine has run maxOps
// operations. Time the gate holds the drivers back is not measured; a
// nil gate never does.
func closedLoop(drivers int, run time.Duration, maxOps int, gate *hostMonitor, op func(g, seq int) outcome) runResult {
	parts := make([]runResult, drivers)
	blocks := make([][][]sample, drivers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < drivers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := &parts[g]
			cur := make([]sample, 0, sampleBlock)
			defer func() { blocks[g] = append(blocks[g], cur) }()
			for seq := 0; (maxOps == 0 || seq < maxOps) && (maxOps > 0 || time.Since(start)-gate.pausedFor() < run); seq++ {
				gate.wait()
				t0 := time.Now()
				o := op(g, seq)
				t1 := time.Now()
				if o.attempted == 0 {
					o.attempted = 1
					if !o.ok {
						o.failed = 1
					}
				}
				r.attempted += o.attempted
				r.failed += o.failed
				r.bytes += o.bytes
				if o.ok {
					r.ops++
					if len(cur) == cap(cur) {
						blocks[g] = append(blocks[g], cur)
						cur = make([]sample, 0, sampleBlock)
					}
					cur = append(cur, sample{end: t1.Sub(start), lat: float64(t1.Sub(t0)), bytes: o.bytes})
				}
			}
		}(g)
	}
	wg.Wait()
	paused := gate.pausedFor()
	total := runResult{start: start, elapsed: time.Since(start) - paused, paused: paused}
	for _, p := range parts {
		total.ops += p.ops
	}
	total.samples = make([]sample, 0, total.ops)
	for g, p := range parts {
		for _, b := range blocks[g] {
			total.samples = append(total.samples, b...)
		}
		total.attempted += p.attempted
		total.failed += p.failed
		total.bytes += p.bytes
	}
	return total
}

// A run's percentiles are means over runs of consecutive operations
// ("chunks"), so a stall on a shared host moves one chunk instead of the
// whole run, and a host that switches speed mid-run weighs in by how
// long it ran at each speed. Each chunk is long enough for its p90 to have minBeyond
// samples above it.
const (
	maxChunks   = 20
	minPerChunk = 10 * minBeyond // a p90 over fewer has under minBeyond beyond it
	quietSteal  = 0.01           // a chunk with no more stolen than this is quiet
)

// chunk is the latency figures of a run of consecutive operations, and
// the span it covers from the start of the run.
type chunk struct {
	p50, p90 float64 // ns
	from, to time.Duration
	ops      int     // operations in the chunk
	busy     float64 // sum of their latencies, ns
	bytes    uint64  // bytes they delivered
}

// latencyChunks cuts the operations, in completion order, into as many
// equal chunks as have at least minPerChunk each (at most max); nil when
// there are fewer than minPerChunk operations.
func latencyChunks(samples []sample, max int) []chunk {
	n := min(len(samples)/minPerChunk, max)
	if n == 0 {
		return nil
	}
	ordered := append([]sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].end < ordered[j].end })
	out := make([]chunk, n)
	for i := range out {
		part := ordered[i*len(ordered)/n : (i+1)*len(ordered)/n]
		lat := make([]float64, len(part))
		for j, s := range part {
			lat[j] = s.lat
			out[i].busy += s.lat
			out[i].bytes += s.bytes
		}
		out[i].ops = len(part)
		sort.Float64s(lat)
		out[i].p50, _ = percentile(lat, 50)
		out[i].p90, _ = percentile(lat, 90)
		out[i].from = part[0].end - time.Duration(part[0].lat)
		out[i].to = part[len(part)-1].end
	}
	return out
}

// quietChunks keeps the chunks during which the hypervisor stole no more
// of the host's CPU than it did during the median chunk, or than
// quietSteal. On a shared host, latency follows stolen time closely (a
// run with 12% stolen showed churn's p90 50% higher), so the percentiles
// come from the quieter half of the run. Below quietSteal the stolen
// share is noise: sorting chunks by it would drop half of them at
// random, so they all stay.
func quietChunks(chunks []chunk, steal func(from, to time.Duration) float64) []chunk {
	shares := make([]float64, len(chunks))
	for i, c := range chunks {
		shares[i] = steal(c.from, c.to)
	}
	limit := max(median(shares), quietSteal)
	var kept []chunk
	for i, c := range chunks {
		if shares[i] <= limit {
			kept = append(kept, c)
		}
	}
	return kept
}

// closedLoopRates is the throughput of a closed loop over the given
// chunks: drivers operations are always in flight, so the loop completes
// drivers operations per mean latency (Little's law). Taken over the
// quiet chunks, it is the rate of the program while the host left it
// alone, which no pause or stall between operations can skew.
func closedLoopRates(chunks []chunk, drivers int) (opsPerS, bytesPerS float64) {
	var ops int
	var busy float64
	var bytes uint64
	for _, c := range chunks {
		ops += c.ops
		busy += c.busy
		bytes += c.bytes
	}
	if busy == 0 {
		return 0, 0
	}
	secs := busy / 1e9 / float64(drivers)
	return float64(ops) / secs, float64(bytes) / secs
}
