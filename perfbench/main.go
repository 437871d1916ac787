// Command perfbench is the repository's end-to-end benchmark. It drives
// the three paths users run — profile → advice over the seven paper
// programs, `structslim optimize` over the same programs, and push →
// /v1/report over HTTP — checks every output, and prints one JSON result
// line whose metrics are the ones BENCHMARK.json lists.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload profile-paper --seed 1 --seconds 30 --trace 0
//
// NOTES.md explains the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// specFile lists the metrics, with their units, that a run must print;
// spanDir receives the traced run's spans. Both are relative to the
// repository root the benchmark runs from.
var (
	specFile = "BENCHMARK.json"
	spanDir  = filepath.Join(".bench_build", "perfbench")
)

// setupRepeats is how many times the primary path is set up from scratch;
// setup_s is the median, so one slow set-up does not move it.
const setupRepeats = 5

// path is one user-facing pipeline the benchmark drives.
type path interface {
	// setup does everything before the first timed pass, including one
	// untimed warm-up op whose outputs become the reference for checks.
	setup() error
	// pass runs one closed-loop pass (seven programs, or one ingest
	// round). A failed op is counted in the tally; the returned error is
	// for failures that leave nothing to measure. tr is nil when untraced.
	pass(tr *tracer) error
	// log is the host time and input of the passes run so far.
	log() *passLog
	// e2e adds the end-to-end metrics pass_min_s, input_per_s and
	// overhead_pct, over untraced passes.
	e2e(m map[string]float64)
	// metrics adds the path's own named metrics, over untraced passes.
	metrics(m map[string]float64)
	close()
}

// primaryPath is the path each workload drives for its timed window.
var primaryPath = map[string]string{
	"profile-paper":  "profile",
	"optimize-paper": "optimize",
	"ingest-mixed":   "ingest",
}

// pathOrder lists the paths; the traced run drives all of them.
var pathOrder = []string{"profile", "optimize", "ingest"}

// sidePasses is how many passes the traced run gives a path that is not
// the workload's own, half of them untraced.
var sidePasses = map[string]int{"profile": 4, "optimize": 2, "ingest": 12}

func newPath(name string, seed uint64) path {
	switch name {
	case "profile":
		return &profilePath{seed: seed}
	case "optimize":
		return &optimizePath{seed: seed}
	case "ingest":
		return &ingestPath{seed: seed}
	}
	panic("unknown path " + name)
}

// tally counts ops attempted and failed across the run.
type tally struct {
	attempted, failed int
}

var ops tally

// opDone records one op; a non-nil err fails it and is logged to stderr.
func opDone(err error) {
	ops.attempted++
	if err != nil {
		ops.failed++
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "profile-paper, optimize-paper or ingest-mixed")
	seed := flag.Uint64("seed", 1, "sampler seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()

	primary, ok := primaryPath[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	raw, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	window := time.Duration(*seconds) * time.Second

	m := make(map[string]float64)
	var want []metricSpec
	if *trace == 0 {
		want = spec.EndToEnd
		err = untracedRun(primary, *seed, window, m)
	} else {
		want = spec.PerLayer
		err = tracedRun(*workload, primary, *seed, window, m)
	}
	if err != nil {
		return err
	}

	res := result{Attempted: ops.attempted, Failed: ops.failed, Metrics: make(map[string]metricOut)}
	for _, s := range want {
		v, ok := m[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricOut{Value: v, Unit: s.Unit}
	}
	res.Correct = ops.failed == 0 && ops.attempted > 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// untracedRun measures the end-to-end metrics on the workload's own
// path: set up setupRepeats times from scratch, then driven for the window.
func untracedRun(primary string, seed uint64, window time.Duration, m map[string]float64) error {
	var setups []float64
	var p path
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.close()
		}
		p = newPath(primary, seed)
		t0 := time.Now()
		if err := p.setup(); err != nil {
			return fmt.Errorf("%s setup: %w", primary, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.close()
	m["setup_s"] = median(setups)
	if err := driveTraced(p, window, 0, false, nil); err != nil {
		return err
	}
	if c, ok := p.(checker); ok {
		c.check()
	}
	p.e2e(m)
	m["peak_rss_mb"] = peakRSSMB()
	return nil
}

// checker is a path with an output check that runs after its window and
// is not part of set-up or of any timed metric.
type checker interface{ check() }

// driveTraced runs passes until the window has elapsed (n == 0) or n
// passes are done; a pass in progress when the window ends completes.
// Every pass is traced by tr (nil: none), or with alternate set every
// second one, ending on a whole untraced/traced pair.
func driveTraced(p path, window time.Duration, n int, alternate bool, tr *tracer) error {
	start := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			break
		}
		if n == 0 && i > 0 && time.Since(start) >= window && (!alternate || i%2 == 0) {
			break
		}
		t := tr
		if alternate && i%2 == 0 {
			t = nil
		}
		if err := p.pass(t); err != nil {
			return err
		}
	}
	return nil
}

// passLog keeps the host time of each pass, split by whether it was
// traced; the host time of each op of the untraced passes, by its
// position in the pass; and, for the profile and ingest paths' own
// throughput figures, the input the untraced passes consumed (simulated
// memory accesses, or samples acknowledged) over inputTime.
type passLog struct {
	plain, traced []float64
	opTimes       [][]float64
	input         float64
	inputTime     time.Duration
}

func (l *passLog) addOp(i int, d time.Duration) {
	for len(l.opTimes) <= i {
		l.opTimes = append(l.opTimes, nil)
	}
	l.opTimes[i] = append(l.opTimes[i], d.Seconds())
}

// p50 is the median pass: the sum over a pass's ops of each op's median
// host time. A window holds only a handful of optimize passes, and the
// sum of seven medians is steadier than the median of so few sums.
func (l *passLog) p50() float64 { return l.sumOver(median) }

// min is the pass with the least interference: the sum over a pass's ops
// of each op's fastest host time. Other load on a shared machine only
// ever slows an op down, and how often it does drifts from minute to
// minute; the fastest time of each op is what stays put.
func (l *passLog) min() float64 { return l.sumOver(minimum) }

func (l *passLog) sumOver(stat func([]float64) float64) float64 {
	var s float64
	for _, t := range l.opTimes {
		s += stat(t)
	}
	return s
}

func (l *passLog) add(d time.Duration, traced bool) {
	if traced {
		l.traced = append(l.traced, d.Seconds())
	} else {
		l.plain = append(l.plain, d.Seconds())
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minimum(xs []float64) float64 { return quantile(xs, 0) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
