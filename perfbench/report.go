package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 9

// maxFailureMessages bounds the failure messages a run keeps.
const maxFailureMessages = 20

// report is what a workload run hands back to main.
type report struct {
	attempted int
	failed    int
	failures  []string
	// runErrors are checks on the run as a whole, such as the layer
	// accounting of a traced run; any of them makes the result incorrect.
	runErrors []string

	// End-to-end measurement: the untraced windows (served workloads) or
	// rounds (solve-large), each reduced on its own; every end-to-end
	// metric is the median over them, so a transient stall of the host
	// moves one window, not the result.
	windows []winStat
	setups  []float64 // seconds per set-up repetition

	// Traced runs only.
	layers map[string]float64
	spans  []span

	props map[string]any
}

func newReport() *report {
	return &report{layers: map[string]float64{}, props: map[string]any{}}
}

// fail records one failed operation.
func (r *report) fail(msg string) {
	r.failed++
	if len(r.failures) < maxFailureMessages {
		r.failures = append(r.failures, msg)
	}
}

// result assembles the final line: the end-to-end metrics, or with trace
// the per-layer ones.
func (r *report) result(trace bool) result {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0 && len(r.runErrors) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if trace {
		for k, v := range r.layers {
			res.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
		}
		return res
	}
	per := map[string][]float64{}
	samples := 0
	for _, w := range r.windows {
		lat := append([]float64(nil), w.latMS...)
		sort.Float64s(lat)
		samples += len(lat)
		per["solves_per_s"] = append(per["solves_per_s"], float64(len(lat))/w.wall.Seconds())
		per["latency_p50_ms"] = append(per["latency_p50_ms"], percentile(lat, 50))
		per["latency_p90_ms"] = append(per["latency_p90_ms"], percentile(lat, 90))
		per["latency_p99_ms"] = append(per["latency_p99_ms"], percentile(lat, 99))
		per["cpu_ms_per_solve"] = append(per["cpu_ms_per_solve"], ms(w.cpu)/math.Max(1, float64(w.ops)))
	}
	for k, v := range per {
		unit := "ms"
		if k == "solves_per_s" {
			unit = "1/s"
		}
		res.Metrics[k] = metric{median(v), unit}
	}
	res.Metrics["ok_frac"] = metric{1 - frac(r.failed, r.attempted), "frac"}
	res.Metrics["setup_s"] = metric{median(r.setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	r.props["latency_samples"] = samples
	r.props["window_solves_per_s"] = per["solves_per_s"]
	return res
}

// winStat is one measured window: latencies of its checked-correct
// operations, operations attempted, wall and process CPU time.
type winStat struct {
	latMS []float64
	ops   int
	wall  time.Duration
	cpu   time.Duration
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_ms_p50"):
		return "ms"
	case strings.HasSuffix(name, "_gbs"):
		return "GB/s"
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "true_rel_residual") || strings.HasSuffix(name, "_ratio_vs_pcg"):
		return "ratio"
	case strings.HasSuffix(name, "flops_per_byte"):
		return "flop/B"
	case strings.HasSuffix(name, "_mb_per_solve"):
		return "MB"
	default:
		return "count"
	}
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// percentile interpolates linearly between closest ranks of sorted xs; an
// empty sample reads 0 (JSON has no NaN), and the run that produced it has
// failed its checks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
