package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/scenario"
	"anongossip/internal/sim"
)

// toySim shrinks a simulation workload to a few seconds of host time.
func toySim(sw simWorkload, nodes int, horizon time.Duration) simWorkload {
	full := sw.config
	sw.config = func() scenario.Config {
		c := full()
		c.Nodes = nodes
		c.Area.W, c.Area.H = 150, 150
		return scenario.ShortenedData(c, horizon)
	}
	sw.setupReps = 3
	sw.agMustWin = false // a toy field proves nothing about the paper's result
	return sw
}

var toyLive = liveWorkload{
	nodes: 4, sources: 2, rate: 200, session: 300 * time.Millisecond, timeScale: 10,
	stack:  liveLoopback.stack,
	settle: 50 * time.Millisecond, drain: 3 * time.Second,
	lateBound: time.Second, setupReps: 2,
}

// toyRuns maps each workload onto a toy-sized run.
var toyRuns = map[string]func(options) (*outcome, error){
	"paper-mobile": func(o options) (*outcome, error) {
		return runSim(toySim(paperMobile, 12, 30*time.Second), o)
	},
	"dense-storm": func(o options) (*outcome, error) {
		return runSim(toySim(denseStorm, 20, 20*time.Second), o)
	},
	"scale-10k": func(o options) (*outcome, error) {
		return runSim(toySim(scale10k, 60, 3*time.Second), o)
	},
	"live-loopback": func(o options) (*outcome, error) { return runLive(toyLive, o) },
}

// TestToyWorkloadsPrintEveryMetric runs every workload at toy size,
// untraced and traced, and checks that the result line carries every
// named metric with its unit, a failure count, and passing checks.
func TestToyWorkloadsPrintEveryMetric(t *testing.T) {
	var profiled float64 // CPU the traced passes attributed, all workloads
	for _, wl := range workloads {
		toy, ok := toyRuns[wl.name]
		if !ok {
			t.Fatalf("workload %s has no toy run", wl.name)
		}
		for _, traced := range []bool{false, true} {
			opts := options{seed: 3, seeds: []int64{1}, seconds: 0.1, trace: traced,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			out, err := toy(opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			var buf bytes.Buffer
			rep, err := finish(wl.name, opts, out, &buf)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.name, traced, err, buf.String())
			}
			text := buf.String()
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.name, traced, rep.Correct, rep.Attempted, rep.Failed, text)
			}
			if !strings.Contains(text, "attempted,") || !strings.Contains(text, "failed") {
				t.Errorf("%s: no failure count printed", wl.name)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.name, traced, d.name, m, d.unit)
				}
				if !strings.Contains(text, d.name) {
					t.Errorf("%s: table does not print %s", wl.name, d.name)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.name, m.Value)
				}
			}
			if traced {
				for _, l := range layerCPUNames {
					profiled += out.layer[l+".cpu_s"]
				}
				b, err := os.ReadFile(opts.traceOut)
				if err != nil || !bytes.Contains(b, []byte(`"spans"`)) {
					t.Errorf("%s: trace file missing or without spans: %v", wl.name, err)
				}
			}
		}
	}
	if profiled <= 0 {
		t.Error("the traced passes attributed no CPU time to any layer")
	}
}

func TestEventParityBreakTripsCheck(t *testing.T) {
	cfg := toySim(paperMobile, 12, 20*time.Second).config()
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := simJob{seed: cfg.Seed, spec: agStack}
	out := &outcome{}
	checkResult(out, j, res)
	if len(out.problems) != 0 {
		t.Fatalf("clean Result failed checks: %v", out.problems)
	}
	bad := *res
	bad.ElidedRadio++
	checkResult(out, j, &bad)
	if len(out.problems) != 1 || !strings.Contains(out.problems[0], "Events") {
		t.Errorf("event-parity break not caught: %v", out.problems)
	}

	out = &outcome{}
	over := *res
	over.Members = append([]scenario.MemberResult(nil), res.Members...)
	over.Members[0].Received = over.Sent + 1
	checkResult(out, j, &over)
	if len(out.problems) == 0 {
		t.Error("member receiving more than was sent not caught")
	}

	if digest(res) == digest(&bad) {
		t.Error("digest does not see the corrupted event count")
	}
	traced := *res
	traced.HeapLiveBytes = 1234
	if !reflect.DeepEqual(stripMeasurement(res), stripMeasurement(&traced)) || digest(res) != digest(&traced) {
		t.Error("measurement-only fields change the compared Result")
	}
}

func TestDuplicateLiveDeliveryTripsCheck(t *testing.T) {
	t0 := time.Now()
	k1 := pkt.SeqKey{Origin: 1, Seq: 1}
	k2 := pkt.SeqKey{Origin: 2, Seq: 1}
	pubs := []publish{{key: k1, due: t0}, {key: k2, due: t0}}
	clean := [][]delivery{
		{{key: k2, at: t0.Add(time.Millisecond)}},
		{{key: k1, at: t0.Add(2 * time.Millisecond)}},
		{{key: k1, at: t0}, {key: k2, at: t0}},
	}
	lat, problems := checkDeliveries(pubs, clean)
	if len(problems) != 0 || len(lat) != 4 {
		t.Fatalf("clean deliveries: %d latencies, problems %v", len(lat), problems)
	}
	cases := map[string][][]delivery{
		"twice":       {nil, nil, {{key: k1, at: t0}, {key: k1, at: t0}}},
		"unpublished": {nil, nil, {{key: pkt.SeqKey{Origin: 9, Seq: 9}, at: t0}}},
		"own publish": {{{key: k1, at: t0}}},
	}
	for want, recs := range cases {
		_, problems := checkDeliveries(pubs, recs)
		if len(problems) != 1 || !strings.Contains(problems[0], want) {
			t.Errorf("%s: problems %v", want, problems)
		}
	}
}

func TestAGWinCheck(t *testing.T) {
	out := &outcome{}
	checkAGWins(out, map[string]float64{"delivery_ratio": 0.9, "baseline_delivery_ratio": 0.5})
	checkAGWins(out, map[string]float64{"delivery_ratio": 0.4, "baseline_delivery_ratio": 0.5})
	if len(out.problems) != 1 {
		t.Errorf("problems %v, want exactly the losing case", out.problems)
	}
}

func TestShardedMismatchIsVisible(t *testing.T) {
	sw := toySim(scale10k, 40, 2*time.Second)
	cfg := jobConfig(sw, simJob{seed: 1, spec: agStack})
	sharded, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = sim.SchedulerSerial
	serial, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripMeasurement(sharded), stripMeasurement(serial)) {
		t.Fatal("sharded and serial Results differ")
	}
	serial.Events++
	if reflect.DeepEqual(stripMeasurement(sharded), stripMeasurement(serial)) {
		t.Error("corrupted serial Result still compares equal")
	}
}

func TestAttributionLayers(t *testing.T) {
	cases := map[string]string{
		"anongossip/internal/sim.(*Scheduler).Run":                                    "sim",
		"anongossip/internal/runtime/netrt.(*Node).loop":                              "netrt",
		"anongossip/internal/runtime/simrt.(*Runtime).Send":                           "node",
		"anongossip/internal/geom.Dist":                                               "mobility",
		"anongossip/internal/maodv.(*Node).onJoin.func1":                              "routing",
		"anongossip/internal/gossip.newTable[go.shape.*anongossip/internal/pkt.Data]": "gossip",
		"runtime.mapaccess2":                                                          "",
		"anongossip/perfbench.runPass":                                                "",
	}
	for fn, want := range cases {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the definitions here
// in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	same := func(kind string, got []def, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %+v, want %s [%s]", kind, i, got[i], d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-mobile", "--trace", "2"},
		{"--workload", "paper-mobile", "--seconds", "0"},
		{"--workload", "paper-mobile", "--seeds", "1,x"},
		{"--bogus"},
	} {
		var buf bytes.Buffer
		if code, err := run(args, &buf); code != 2 || err == nil {
			t.Errorf("run(%v) = %d, %v; want 2 and an error", args, code, err)
		}
	}
}
