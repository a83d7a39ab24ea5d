package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"sagrelay/internal/incr"
	"sagrelay/internal/lp"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs; 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// overheadOf is the traced phase's mean latency over the untraced phase's,
// minus one (0 when either phase has no ops).
func overheadOf(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 || mean(untraced) == 0 {
		return 0
	}
	return mean(traced)/mean(untraced) - 1
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencyMetrics reports a latency sample set as a median plus the fixed
// tail percentile, and records the percentile, the sample count and how many
// samples lie beyond the tail (the guide asks for at least ten).
func latencyMetrics(r *report, prefix string, lat []float64, tailPct float64, asE2E bool) {
	add := r.extra
	if asE2E {
		add = r.e2e
	}
	add(prefix+"_p50", median(lat), "ms")
	add(prefix+"_tail", percentile(lat, tailPct), "ms")
	beyond := int(math.Floor(float64(len(lat)) * (1 - tailPct/100)))
	r.info(prefix+"_tail", fmt.Sprintf("p%g of %d samples (%d beyond)", tailPct, len(lat), beyond))
	var qs []string
	for _, p := range []float64{75, 90, 95, 99, 99.9, 100} {
		qs = append(qs, fmt.Sprintf("p%g=%.4g", p, percentile(lat, p)))
	}
	r.info(prefix+"_percentiles", strings.Join(qs, " "))
}

// opsWindows is how many equal windows of a timed phase ops_per_s takes
// its median over.
const opsWindows = 10

// interval is one op's time on the wall clock, from send to answer.
type interval struct{ from, to time.Time }

// throughput reports ops_per_s and ops_per_s_mean for a timed phase
// [start, end) whose ops ran over spans, correct of them correctly.
// ops_per_s is the median, over opsWindows equal windows, of the ops
// completed per second in each window. An op counts in each window by the
// share of its interval that falls there, so the windows add up to the op
// count. A rare very slow op, or a short host stall, then moves one or two
// windows rather than the figure. ops_per_s_mean is the whole phase's op
// count over its length. Both count correct ops only.
func throughput(r *report, spans []interval, correct int, start, end time.Time) {
	w := end.Sub(start) / opsWindows
	if len(spans) == 0 || w <= 0 {
		r.e2e("ops_per_s", 0, "1/s")
		r.extra("ops_per_s_mean", 0, "1/s")
		return
	}
	counts := make([]float64, opsWindows)
	for _, s := range spans {
		d := s.to.Sub(s.from)
		for i := range counts {
			lo := start.Add(time.Duration(i) * w)
			hi := lo.Add(w)
			if d <= 0 {
				if !s.to.Before(lo) && s.to.Before(hi) {
					counts[i]++
				}
				continue
			}
			from, to := s.from, s.to
			if from.Before(lo) {
				from = lo
			}
			if to.After(hi) {
				to = hi
			}
			if to.After(from) {
				counts[i] += float64(to.Sub(from)) / float64(d)
			}
		}
	}
	share := float64(correct) / float64(len(spans))
	for i := range counts {
		counts[i] *= share / w.Seconds()
	}
	r.e2e("ops_per_s", median(counts), "1/s")
	r.extra("ops_per_s_mean", float64(correct)/end.Sub(start).Seconds(), "1/s")
}

// medianSetup runs setup n times and returns the median wall time. Every
// set-up but the last is torn down; the last one's state is returned for the
// timed phase.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	times := make([]float64, 0, n)
	var last T
	for i := 0; i < n; i++ {
		start := time.Now()
		st, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(st)
		} else {
			last = st
		}
	}
	return last, median(times), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) > 0 {
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// counters is a snapshot of the process-wide work counters the program
// exposes, plus the Go runtime's allocation and CPU-class totals.
type counters struct {
	nodes               int64
	warm, coldFallbacks int64
	pivots              float64
	reused, resolved    int64
	allocBytes          float64
	gcCPU, totalCPU     float64
	idleCPU             float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCounters() counters {
	c := counters{nodes: milp.TotalNodes(), reused: incr.ZonesReused(), resolved: incr.ZonesResolved()}
	c.warm, c.coldFallbacks = lp.WarmStats()
	for _, h := range obs.Default.Histograms() {
		if h.Name() == "sag_lp_pivots_per_solve" {
			c.pivots = h.Sum()
		}
	}
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	c.allocBytes, c.gcCPU, c.totalCPU, c.idleCPU = val(0), val(1), val(2), val(3)
	return c
}

func (c counters) sub(b counters) counters {
	return counters{
		nodes: c.nodes - b.nodes, warm: c.warm - b.warm, coldFallbacks: c.coldFallbacks - b.coldFallbacks,
		pivots: c.pivots - b.pivots, reused: c.reused - b.reused, resolved: c.resolved - b.resolved,
		allocBytes: c.allocBytes - b.allocBytes, gcCPU: c.gcCPU - b.gcCPU,
		totalCPU: c.totalCPU - b.totalCPU, idleCPU: c.idleCPU - b.idleCPU,
	}
}

// probe covers one traced phase: counter deltas and a CPU profile.
type probe struct {
	start counters
	prof  bytes.Buffer
}

func startProbe() (*probe, error) {
	runtime.GC()
	p := &probe{start: readCounters()}
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the phase and returns the counter deltas and CPU shares.
func (p *probe) stop() (counters, *cpuShares, error) {
	pprof.StopCPUProfile()
	d := readCounters().sub(p.start)
	shares, err := parseCPUProfile(p.prof.Bytes())
	return d, shares, err
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	ops    int
	delta  counters
	cpu    *cpuShares
	solves []*obs.SpanDoc // the "solve" span of each op that ran the pipeline
	serve  serveLayer
	sim    int
	// overhead is the traced phase's mean op latency over the untraced
	// phase's, minus one.
	overhead float64
}

// serveLayer holds the serve-layer figures of a traced phase (zero for the
// workload that does not use the service).
type serveLayer struct {
	overheadMS   []float64
	queueMS      []float64
	resultBytes  []float64
	cacheHits    int64
	cacheLookups int64
}

// perLayer is the ordered per-layer metric list (BENCHMARK.json per_layer).
var perLayer = []struct{ name, unit string }{
	{"serve.overhead_ms_p50", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.result_bytes_p50", "bytes"},
	{"serve.cache_hit_ratio", "ratio"},
	{"incr.zone_reuse_ratio", "ratio"},
	{"incr.upper_splice_ratio", "ratio"},
	{"core.coverage_ms_p50", "ms"},
	{"core.coverage_power_ms_p50", "ms"},
	{"core.connectivity_ms_p50", "ms"},
	{"core.connectivity_power_ms_p50", "ms"},
	{"lower.zone_partition_ms_p50", "ms"},
	{"lower.zone_ms_p50", "ms"},
	{"lower.zones_per_op", "count"},
	{"hitting.cpu_share", "ratio"},
	{"milp.bb_nodes_per_op", "count"},
	{"milp.warm_share", "ratio"},
	{"milp.cold_fallbacks_per_op", "count"},
	{"lp.pivots_per_op", "count"},
	{"lp.cpu_share", "ratio"},
	{"lp.refactor_cpu_share", "ratio"},
	{"lp.cold_root_us", "us"},
	{"lp.warm_child_us", "us"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"check.sim_violations", "count"},
	{"bench.trace_overhead", "ratio"},
}

// layerMetrics fills r.Layers from a traced phase.
func layerMetrics(r *report, in layerInput) error {
	ops := float64(in.ops)
	if ops == 0 {
		ops = 1
	}
	v := map[string]float64{}
	d := in.delta

	v["serve.overhead_ms_p50"] = median(in.serve.overheadMS)
	v["serve.queue_ms_p50"] = median(in.serve.queueMS)
	v["serve.result_bytes_p50"] = median(in.serve.resultBytes)
	if in.serve.cacheLookups > 0 {
		v["serve.cache_hit_ratio"] = float64(in.serve.cacheHits) / float64(in.serve.cacheLookups)
	}
	if z := d.reused + d.resolved; z > 0 {
		v["incr.zone_reuse_ratio"] = float64(d.reused) / float64(z)
	}

	st := rollUp(in.solves)
	v["incr.upper_splice_ratio"] = st.upperSplice
	v["core.coverage_ms_p50"] = median(st.stage["coverage"])
	v["core.coverage_power_ms_p50"] = median(st.stage["coverage_power"])
	v["core.connectivity_ms_p50"] = median(st.stage["connectivity"])
	v["core.connectivity_power_ms_p50"] = median(st.stage["connectivity_power"])
	v["lower.zone_partition_ms_p50"] = median(st.stage["zone_partition"])
	v["lower.zone_ms_p50"] = median(st.zoneMS)
	if len(in.solves) > 0 {
		v["lower.zones_per_op"] = float64(len(st.zoneMS)) / float64(len(in.solves))
	}

	v["hitting.cpu_share"] = in.cpu.pkgShare("sagrelay/internal/hitting")
	v["milp.bb_nodes_per_op"] = float64(d.nodes) / ops
	if d.nodes > 0 {
		v["milp.warm_share"] = float64(d.warm) / float64(d.nodes)
	}
	v["milp.cold_fallbacks_per_op"] = float64(d.coldFallbacks) / ops
	v["lp.pivots_per_op"] = d.pivots / ops
	v["lp.cpu_share"] = in.cpu.pkgShare("sagrelay/internal/lp")
	v["lp.refactor_cpu_share"] = in.cpu.underShare("sagrelay/internal/lp.(*Solver).welim", "sagrelay/internal/lp.(*Solver).warmAttempt")
	cold, warm, err := lpMicro()
	if err != nil {
		return err
	}
	v["lp.cold_root_us"], v["lp.warm_child_us"] = cold, warm
	v["runtime.alloc_mb_per_op"] = d.allocBytes / 1e6 / ops
	if busy := d.totalCPU - d.idleCPU; busy > 0 {
		v["runtime.gc_cpu_share"] = d.gcCPU / busy
	}
	v["check.sim_violations"] = float64(in.sim)
	v["bench.trace_overhead"] = in.overhead
	for _, m := range perLayer {
		r.Layers = append(r.Layers, metric{m.name, v[m.name], m.unit})
	}
	r.info("traced_ops", in.ops)
	r.info("cpu_profile_top", in.cpu.top(8))
	r.info("cpu_profile_samples", in.cpu.total)
	return nil
}

// spanStats are the roll-ups of the pipeline's own span trees.
type spanStats struct {
	// stage maps a stage span name to its per-op duration in ms.
	stage map[string][]float64
	// zoneMS holds every zone span's duration.
	zoneMS []float64
	// upperSplice is the share of ops whose connectivity stage was spliced
	// from the upper-tier store.
	upperSplice float64
}

func rollUp(solves []*obs.SpanDoc) spanStats {
	st := spanStats{stage: map[string][]float64{}}
	spliced := 0
	for _, s := range solves {
		if s.Attrs["upper_splice"] == "true" {
			spliced++
		}
		sums := map[string]int64{}
		for _, c := range s.Spans {
			sums[c.Name] += c.DurNS
			if c.Name != "coverage" {
				continue
			}
			for _, z := range c.Spans {
				switch z.Name {
				case "zone_partition":
					sums["zone_partition"] += z.DurNS
				case "zone":
					st.zoneMS = append(st.zoneMS, float64(z.DurNS)/1e6)
				}
			}
		}
		for _, name := range []string{"coverage", "coverage_power", "connectivity", "connectivity_power", "zone_partition"} {
			st.stage[name] = append(st.stage[name], float64(sums[name])/1e6)
		}
	}
	if len(solves) > 0 {
		st.upperSplice = float64(spliced) / float64(len(solves))
	}
	return st
}
