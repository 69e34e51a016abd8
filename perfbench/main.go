// Command perfbench is the repository's end-to-end benchmark. It hosts
// the serving tier in one process — a front.Router in front of two
// serve.Server replicas on loopback listeners — drives one of three
// seeded workloads through the router, checks every response against an
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of its output.
//
//	go run . --workload interactive --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read a traced
// run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

// logOut receives diagnostics; stdout carries the tables and the result.
var logOut io.Writer = os.Stderr

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir holds job checkpoints and span dumps, inside the checkout.
var outDir = filepath.Join(".bench_build", "perfbench-out")

// metricName is the syntax every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() {
	var (
		cfg   config
		trace int
		seed  string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: interactive, bulk or job")
	flag.StringVar(&seed, "seed", "1", "workload seed (unsigned integer)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of each timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var err error
	if cfg.seed, err = strconv.ParseUint(seed, 10, 64); err != nil {
		fmt.Fprintln(logOut, "perfbench: bad --seed:", err)
		os.Exit(2)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(logOut, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.outDir = outDir
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(logOut, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(logOut, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result. Notes and the
// tables of a traced run are written to out.
func run(cfg config, out io.Writer) (*result, error) {
	runDir := filepath.Join(cfg.outDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg.outDir = runDir
	b := newBench(cfg, runtime.NumCPU())

	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("prepare %s inputs: %w", cfg.workload, err)
	}

	// Set-up: boot the tier several times and report the median; the last
	// boot serves the run.
	var (
		t      *tier
		setups []float64
	)
	for k := 0; k < setupBoots; k++ {
		if t != nil {
			t.close()
			b.client.CloseIdleConnections()
		}
		var (
			secs float64
			err  error
		)
		t, secs, err = b.boot(k)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", k, err)
		}
		setups = append(setups, secs)
	}
	defer func() {
		t.close()
		b.client.CloseIdleConnections()
	}()

	res := &result{Metrics: map[string]metric{}}
	add := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	w, err := b.window(t)
	if err != nil {
		return nil, err
	}
	var lay *layers
	if cfg.trace {
		// The window above ran untraced; a second, traced window gives the
		// per-layer numbers, and the two primaries give the overhead.
		untraced := w
		lay, err = b.tracedWindow(t)
		if err != nil {
			return nil, err
		}
		lay.untraced = untraced
		w = lay.w
	}

	// Correctness checks that run outside the windows.
	if cfg.workload == wlInteractive {
		bad, err := b.checkLate()
		if err != nil {
			return nil, err
		}
		b.failed.Add(bad)
	}
	var direct map[uint64]time.Duration
	if cfg.workload == wlJob {
		if direct, err = b.verifyJobs(); err != nil {
			return nil, err
		}
	}

	if cfg.trace {
		if err := lay.finish(b, t, direct, out); err != nil {
			return nil, err
		}
		for _, m := range lay.metrics {
			add(m.name, m.value, m.unit)
		}
	} else {
		if err := endToEnd(w, median(setups), add, out); err != nil {
			return nil, err
		}
	}
	for name := range res.Metrics {
		if !metricName.MatchString(name) {
			return nil, fmt.Errorf("metric name %q breaks the naming rule", name)
		}
	}
	res.Attempted = b.attempted.Load()
	res.Failed = b.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// endToEnd reports the end-to-end metrics of an untraced window. Every
// workload reports the same set: an operation is a request on
// interactive and bulk and a job on job, and an evaluation is one eq (4)
// or eq (6) evaluation asked for (a Monte Carlo trial on job). The tail
// latency is written to out as a note, because job windows hold too few
// samples for any tail percentile.
func endToEnd(w *window, setupS float64, add func(string, float64, string), out io.Writer) error {
	if w.ops == 0 || w.elapsed <= 0 || w.evals == 0 || len(w.lat) == 0 {
		return fmt.Errorf("window completed no operations")
	}
	secs := w.elapsed.Seconds()
	add("setup_s", setupS, "s")
	add("throughput_rps", float64(w.ops)/secs, "1/s")
	add("evals_per_s", float64(w.evals)/secs, "evals/s")
	add("latency_p50_ms", median(w.lat), "ms")
	add("cpu_ms_per_op", float64(w.cpu)/1e6/float64(w.ops), "ms")
	add("peak_rss_mb", w.peakRSSMB, "MiB")
	fmt.Fprintf(out, "# latency: %s\n", tailNote(w.lat))
	return nil
}
