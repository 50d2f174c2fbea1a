// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the packages' public entry points —
// scenario.Run on generated configs, and netrt.ProtocolNode over
// netrt.ChanTransport — checks that the outputs are correct, and prints
// one JSON result line last. See README.md for the workloads, the
// metrics and the layer → metric → workload prediction table.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload paper-mobile --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result line carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the benchmark first makes an untraced
// pass, then one traced pass (CPU profile, MetricsWindow telemetry,
// runtime counters) and reports the per-layer metrics, writing the spans
// and counts to --trace-out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings one workload run sees.
type options struct {
	seed     int64
	seeds    []int64 // simulation seed list
	seconds  float64
	trace    bool
	traceOut string
}

// outcome is what a workload run hands back: the end-to-end metrics
// (always), the per-layer metrics (traced runs), the operation counts,
// and every output check that failed.
type outcome struct {
	e2e map[string]float64
	// quality holds the workload-specific numbers the workload has (see
	// quality in metrics.go); the traced result reports them too.
	quality map[string]float64
	// layer holds the traced pass's per-layer metrics; a layer the
	// workload bypasses is absent and reports 0.
	layer     map[string]float64
	extra     []string // human-readable lines printed beside the tables
	attempted int
	failed    int
	problems  []string
	spans     *spanLog
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input.
type workload struct {
	name  string
	seeds []int64 // default seed list
	// heldOut is the seed list later claims must also hold on.
	heldOut []int64
	run     func(opts options) (*outcome, error)
}

var workloads = []workload{
	{
		name:    "paper-mobile",
		seeds:   []int64{1, 2, 3},
		heldOut: []int64{101, 102, 103},
		run:     func(o options) (*outcome, error) { return runSim(paperMobile, o) },
	},
	{
		name:    "dense-storm",
		seeds:   []int64{1},
		heldOut: []int64{101},
		run:     func(o options) (*outcome, error) { return runSim(denseStorm, o) },
	},
	{
		name:    "scale-10k",
		seeds:   []int64{1},
		heldOut: []int64{101},
		run:     func(o options) (*outcome, error) { return runSim(scale10k, o) },
	},
	{
		name:    "live-loopback",
		heldOut: []int64{101},
		run:     func(o options) (*outcome, error) { return runLive(liveLoopback, o) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the flags, runs the workload and prints the result line.
// It returns 0 on a correct run, 1 when an output check failed (the
// result line is still printed) and 2 when no result could be produced.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(names, " | "))
		seed     = fs.Int64("seed", 1, "benchmark seed: orders the simulation jobs, seeds the live cluster")
		seconds  = fs.Float64("seconds", 20, "measurement budget per run (s)")
		traceFl  = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		seedList = fs.String("seeds", "", "comma-separated simulation seed list (default: the workload's; see README.md)")
		traceOut = fs.String("trace-out", "", "span/count file of a traced run (default .bench_build/traces/<workload>-seed<n>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *traceFl != 0 && *traceFl != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFl)
	}
	if !(*seconds > 0) {
		return 2, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	opts := options{seed: *seed, seeds: wl.seeds, seconds: *seconds, trace: *traceFl == 1, traceOut: *traceOut}
	if *seedList != "" {
		s, err := parseSeeds(*seedList)
		if err != nil {
			return 2, err
		}
		opts.seeds = s
	}
	if opts.trace && opts.traceOut == "" {
		opts.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", wl.name, opts.seed))
	}

	out, err := wl.run(opts)
	if err != nil {
		return 2, err
	}
	out.extra = append(out.extra, fmt.Sprintf("held-out seeds for claims: %v", wl.heldOut))
	rep, err := finish(wl.name, opts, out, stdout)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad --seeds entry %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// finish prints the human-readable tables, writes the trace file of a
// traced run and assembles the result line.
func finish(name string, opts options, out *outcome, w io.Writer) (report, error) {
	fmt.Fprintf(w, "== %s: end-to-end (tracing off) ==\n", name)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.6g %-6s  %s\n", d.name, out.e2e[d.name], d.unit, d.what)
	}
	for _, d := range quality {
		if v, ok := out.quality[d.name]; ok {
			fmt.Fprintf(w, "  %-22s %14.6g %-6s  %s\n", d.name, v, d.unit, d.what)
		}
	}
	for _, line := range out.extra {
		fmt.Fprintln(w, "  "+line)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Fprintln(w, "  CHECK FAILED: "+p)
	}

	var defs []metricDef
	var values map[string]float64
	if opts.trace {
		defs, values = perLayer, map[string]float64{}
		for _, d := range layerDefs {
			values[d.name] = out.layer[d.name]
		}
		for _, d := range quality {
			values[d.name] = out.quality[d.name]
		}
		fmt.Fprintf(w, "== %s: per layer (traced pass) ==\n", name)
		for _, d := range perLayer {
			note := "moves " + d.moves
			if d.what != "" {
				note = d.what
			}
			fmt.Fprintf(w, "  %-30s %14.6g %-6s  %s\n", d.name, values[d.name], d.unit, note)
		}
		if err := writeTrace(opts.traceOut, name, opts.seed, values, out.spans); err != nil {
			return report{}, err
		}
		fmt.Fprintf(w, "  spans and counts written to %s\n", opts.traceOut)
	} else {
		defs, values = endToEnd, out.e2e
	}

	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// writeTrace writes a traced run's spans and per-layer counts.
func writeTrace(path, name string, seed int64, counts map[string]float64, spans *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": name,
		"seed":     seed,
		"counts":   counts,
		"spans":    spans.all(),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
