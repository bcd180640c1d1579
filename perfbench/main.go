// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator and the serving stack from outside, through each
// layer's public functions, on one of five workloads:
//
//	sweep       the reduced Figures 7/8/9b arbitrator sweep (experiments.Figure7)
//	measure     every loop trace of the suite through ooo/ino MeasureTrace and
//	            ino MeasureReplay on fresh cores
//	fleet-hot   cache hits through a coordinator and two workers
//	fleet-cold  never-seen keys after a history of hits (hedging, duplicate work)
//	fleet-disk  the hot keys again after both workers restart on their stores
//
// Usage (from the repository root; run.sh builds this package first):
//
//	perfbench --workload sweep --seed 1 --seconds 12 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced run
// (--trace 1) makes one traced pass through every layer, records a span
// around each call it makes into a layer, writes them as a Chrome trace
// under .bench_build/, and prints the per-layer metrics. Either way the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every output the program produces is checked with arithmetic of the
// benchmark's own; an operation whose output is wrong counts as failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workDir holds everything a run writes: the Chrome trace, metrics
// snapshots and the fleet's temporary stores. It sits in the checkout and is
// named in .gitignore.
const workDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's figures. metrics are the figures BENCHMARK.json
// declares for this run kind and go into the final JSON line; notes are the
// workload's own figures (sweep_s, hit_p99_us, ...), printed one per line
// before it so every number a workload measures is visible by name.
type report struct {
	attempted, failed int64
	// wrong is set when an output failed a correctness check (as opposed to
	// a transport error or a refused request).
	wrong   bool
	metrics map[string]metric
	notes   []string
	digests []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("metric %-34s %14.4f %s", name, v, unit))
}

// errWrong marks a check failure on the program's output.
type errWrong struct{ msg string }

func (e *errWrong) Error() string { return e.msg }

func wrongf(format string, args ...any) error {
	return &errWrong{fmt.Sprintf(format, args...)}
}

// check accounts one attempted operation. A non-nil err marks it failed; an
// *errWrong also marks the run's outputs incorrect. The first few failures
// are printed to stderr, so a systematic fault stays readable.
func (r *report) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	var w *errWrong
	if errors.As(err, &w) {
		r.wrong = true
	}
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

var workloads = map[string]func(cfg runConfig, r *report) error{
	"sweep":      runSweep,
	"measure":    runMeasure,
	"fleet-hot":  runFleetHot,
	"fleet-cold": runFleetCold,
	"fleet-disk": runFleetDisk,
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
}

func main() {
	workload := flag.String("workload", "", "sweep, measure, fleet-hot, fleet-cold or fleet-disk")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 12, "measured time per run, in seconds")
	traced := flag.Int("trace", 0, "1 = traced layer pass printing per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := newReport()
	var err error
	if *traced == 1 {
		err = runLayers(cfg, r)
	} else {
		err = run(cfg, r)
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Printf("machine goos=%s goarch=%s go=%s nproc=%d gomaxprocs=%d\n",
		runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, d := range r.digests {
		fmt.Println("digest", d)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!r.wrong, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set size (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tempDir makes a fresh directory under workDir; the caller removes it.
func tempDir(pattern string) (string, error) {
	return os.MkdirTemp(workDir, pattern)
}

// outPath names an artifact of this run under workDir.
func outPath(cfg runConfig, kind string) string {
	return filepath.Join(workDir, fmt.Sprintf("%s-%s-seed%d.json", kind, cfg.workload, cfg.seed))
}
