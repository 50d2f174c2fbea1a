package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"anongossip/internal/scenario"
	"anongossip/internal/sim"
	"anongossip/internal/stack"
)

var (
	agStack    = stack.Spec{Routing: "maodv", Recovery: "gossip"}
	maodvStack = stack.Spec{Routing: "maodv"}
)

// simWorkload is a simulation workload: a generated config run for
// every seed of the seed list under each stack.
type simWorkload struct {
	// config returns the workload's config for the treatment stack
	// (MAODV+AG); the seed and stack are filled in per job.
	config func() scenario.Config
	// stacks lists the stacks each seed runs: the treatment first, then
	// an optional baseline.
	stacks []stack.Spec
	// setupReps is how many set-ups the run times for setup_s.
	setupReps int
	// minPasses is the least number of timed passes; a second pass is
	// the repeated-run determinism check.
	minPasses int
	// serialCheck runs each sharded job once more on the serial kernel,
	// untimed, and requires a deep-equal Result; that run also measures
	// the heap.
	serialCheck bool
	// agMustWin requires the treatment's delivery to exceed the
	// baseline's: the paper's headline result.
	agMustWin bool
}

// paperMobile is the paper's §5.1 environment at the Fig. 3/5 speed:
// 40 nodes, 75 m range, max speed 2 m/s, 600 s, one CBR source.
var paperMobile = simWorkload{
	config: func() scenario.Config {
		return scenario.ApplyFig4And5(scenario.DefaultConfig(), 2)
	},
	stacks:    []stack.Spec{agStack, maodvStack},
	setupReps: 101,
	minPasses: 2,
	agMustWin: true,
}

// denseStorm is the dense family cut to two cores: 100 nodes at target
// degree 30, five sources, 120 s.
var denseStorm = simWorkload{
	config: func() scenario.Config {
		return scenario.ShortenedData(scenario.DenseConfig(100, 30), 120*time.Second)
	},
	stacks:    []stack.Spec{agStack, maodvStack},
	setupReps: 101,
	minPasses: 2,
}

// scale10k is the huge family at 10,000 nodes with a 5 s horizon on the
// sharded kernel with two workers.
var scale10k = simWorkload{
	config: func() scenario.Config {
		c := scenario.ShortenedData(scenario.HugeScaleConfig(10000), 5*time.Second)
		c.MeasureHeap = false // measured on the untimed serial check
		c.Scheduler = sim.SchedulerSharded
		c.Workers = min(2, runtime.NumCPU())
		return c
	},
	stacks:      []stack.Spec{agStack},
	setupReps:   3,
	minPasses:   1,
	serialCheck: true,
}

type simJob struct {
	seed int64
	spec stack.Spec
}

func (j simJob) String() string { return fmt.Sprintf("%v/seed%d", j.spec, j.seed) }

// passResult is one timed pass over every job.
type passResult struct {
	wall    time.Duration // sum of the jobs' Run times
	cpu     time.Duration // process CPU over the same intervals
	events  uint64
	results []*scenario.Result // in job order
	heap    []float64          // heap per node of the treatment jobs (when measured)
}

// runSim runs a simulation workload: set-ups, timed passes, checks and,
// when tracing, one traced pass.
func runSim(sw simWorkload, opts options) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	if opts.trace {
		out.spans = newSpanLog()
	}
	root := out.spans.begin(0, "workload")
	defer out.spans.end(root)

	var jobs []simJob
	for _, s := range opts.seeds {
		for _, sp := range sw.stacks {
			jobs = append(jobs, simJob{seed: s, spec: sp})
		}
	}
	// The benchmark seed orders the jobs; the configs come from the seed
	// list alone, so every run of a workload simulates the same inputs.
	rng := rand.New(rand.NewSource(opts.seed))
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })

	start := time.Now()
	setup, err := measureSetup(sw, opts.seeds[0], out, root)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup

	// Timed passes, tracing off. A job's digest must repeat on every
	// pass.
	digests := map[simJob][32]byte{}
	var passes []passResult
	var passWall []time.Duration
	for {
		p := runPass(sw, jobs, false, !sw.serialCheck, out, root)
		for i, res := range p.results {
			if res == nil {
				continue
			}
			d := digest(res)
			if prev, ok := digests[jobs[i]]; ok && prev != d {
				out.fail("%v: Result digest differs between repeated runs", jobs[i])
			}
			digests[jobs[i]] = d
		}
		passes = append(passes, p)
		passWall = append(passWall, p.wall)
		// A traced run makes one untraced pass; the traced pass repeats
		// it and must match.
		if opts.trace || len(passes) >= sw.minPasses &&
			time.Since(start).Seconds()+median(seconds(passWall)) > opts.seconds {
			break
		}
	}

	var serialWall time.Duration
	heap := passes[0].heap
	if sw.serialCheck {
		heap = nil
		for i, j := range jobs {
			sharded := passes[0].results[i]
			if sharded == nil {
				continue
			}
			cfg := jobConfig(sw, j)
			cfg.Scheduler, cfg.Workers = sim.SchedulerSerial, 0
			cfg.MeasureHeap = true
			base := liveHeap()
			id := out.spans.begin(root, "scenario.Run", "job", j.String(), "kernel", "serial")
			t0 := time.Now()
			serial, err := scenario.Run(cfg)
			serialWall += time.Since(t0)
			out.spans.end(id)
			out.attempted++
			if err != nil {
				out.failed++
				out.fail("%v serial: %v", j, err)
				continue
			}
			checkResult(out, j, serial)
			if j.spec == sw.stacks[0] {
				heap = append(heap, heapPerNode(serial.HeapLiveBytes, base, cfg.Nodes))
			}
			if !reflect.DeepEqual(stripMeasurement(sharded), stripMeasurement(serial)) {
				out.fail("%v: sharded Result differs from the serial kernel's", j)
			}
		}
	}

	var cpuPerOp []float64
	for _, p := range passes {
		cpuPerOp = append(cpuPerOp, ratio(float64(p.cpu.Microseconds()), float64(p.events)))
	}
	out.e2e["run_s"] = median(seconds(passWall))
	out.e2e["cpu_us_per_op"] = median(cpuPerOp)
	out.e2e["heap_per_node_b"] = median(heap)

	out.quality = simQuality(sw, jobs, passes[0].results)
	if sw.agMustWin {
		checkAGWins(out, out.quality)
	}
	out.extra = append(out.extra, fmt.Sprintf("passes: %d %.3f s; seeds %v; stacks %v", len(passes), seconds(passWall), opts.seeds, sw.stacks))
	if serialWall > 0 {
		out.extra = append(out.extra, fmt.Sprintf("serial check: %.3f s", serialWall.Seconds()))
	}

	if opts.trace {
		if err := tracedSimPass(sw, jobs, passes[0], serialWall, out, root); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// jobConfig is the generated config of one job.
func jobConfig(sw simWorkload, j simJob) scenario.Config {
	cfg := sw.config()
	cfg.Protocol = 0
	cfg.Stack = j.spec
	cfg.Seed = j.seed
	return cfg
}

// measureSetup times Run on the workload's config cut to a horizon
// before its first event (and with no CBR packets), repeated
// sw.setupReps times, and returns the median in seconds.
func measureSetup(sw simWorkload, seed int64, out *outcome, parent int) (float64, error) {
	cfg := jobConfig(sw, simJob{seed: seed, spec: sw.stacks[0]})
	cfg.Duration = time.Nanosecond
	cfg.DataStart, cfg.DataEnd = 2*time.Nanosecond, time.Nanosecond
	cfg.MeasureHeap = false
	var times []float64
	for i := 0; i < sw.setupReps; i++ {
		runtime.GC()
		id := out.spans.begin(parent, "setup")
		t0 := time.Now()
		res, err := scenario.Run(cfg)
		times = append(times, time.Since(t0).Seconds())
		out.spans.end(id)
		out.attempted++
		if err != nil {
			out.failed++
			return 0, fmt.Errorf("set-up run: %w", err)
		}
		checkResult(out, simJob{seed: seed, spec: cfg.Stack}, res)
	}
	return median(times), nil
}

// runPass runs every job once, timing each Run call alone. When heap
// is set the treatment jobs also measure their live heap per node.
func runPass(sw simWorkload, jobs []simJob, traced, heap bool, out *outcome, parent int) passResult {
	p := passResult{results: make([]*scenario.Result, len(jobs))}
	pid := out.spans.begin(parent, "pass", "traced", strconv.FormatBool(traced))
	defer out.spans.end(pid)
	for i, j := range jobs {
		cfg := jobConfig(sw, j)
		measure := heap && j.spec == sw.stacks[0]
		cfg.MeasureHeap = measure
		if traced {
			cfg.MetricsWindow = time.Second
		}
		base := liveHeap() // also settles garbage before every timed run
		id := out.spans.begin(pid, "scenario.Run", "job", j.String())
		c0, t0 := processCPU(), time.Now()
		res, err := scenario.Run(cfg)
		wall, cpu := time.Since(t0), processCPU()-c0
		out.spans.end(id)
		out.attempted++
		p.wall += wall
		p.cpu += cpu
		if err != nil {
			out.failed++
			out.fail("%v: %v", j, err)
			continue
		}
		checkResult(out, j, res)
		p.results[i] = res
		p.events += res.Events
		if measure {
			p.heap = append(p.heap, heapPerNode(res.HeapLiveBytes, base, cfg.Nodes))
		}
	}
	return p
}

// checkResult applies the per-run output checks: the event breakdown
// sums to Events, and no member received more packets than were sent.
func checkResult(out *outcome, j simJob, r *scenario.Result) {
	if sum := r.EventsProcessed + r.ElidedKernel + r.ElidedRadio + r.ElidedMAC; sum != r.Events {
		out.fail("%v: Events %d != processed %d + elided %d/%d/%d", j, r.Events,
			r.EventsProcessed, r.ElidedKernel, r.ElidedRadio, r.ElidedMAC)
	}
	if r.Received.Max > float64(r.Sent) {
		out.fail("%v: a member received %v packets of %d sent", j, r.Received.Max, r.Sent)
	}
	for _, m := range r.Members {
		if m.Received > r.Sent || m.Recovered > m.Received {
			out.fail("%v: member %v received %d (recovered %d) of %d sent", j, m.Node, m.Received, m.Recovered, r.Sent)
			break
		}
	}
}

// checkAGWins requires MAODV+AG to deliver more than bare MAODV: the
// paper's headline result, which the sparse mobile field must keep.
func checkAGWins(out *outcome, q map[string]float64) {
	if !(q["delivery_ratio"] > q["baseline_delivery_ratio"]) {
		out.fail("MAODV+AG delivery %.4f does not exceed bare MAODV's %.4f", q["delivery_ratio"], q["baseline_delivery_ratio"])
	}
}

// stripMeasurement copies r without the fields that observe the run
// rather than simulate it (telemetry series, heap sample).
func stripMeasurement(r *scenario.Result) scenario.Result {
	c := *r
	c.Metrics, c.Channel, c.HeapLiveBytes = nil, nil, 0
	return c
}

// digest hashes the simulated content of a Result.
func digest(r *scenario.Result) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%+v", stripMeasurement(r))))
}

// simQuality computes the workload-specific delivery numbers.
func simQuality(sw simWorkload, jobs []simJob, results []*scenario.Result) map[string]float64 {
	q := map[string]float64{}
	var agDel, baseDel, goodput, recLat, treeLat []float64
	var bytes, delivered float64
	for i, j := range jobs {
		r := results[i]
		if r == nil {
			continue
		}
		if j.spec != sw.stacks[0] {
			baseDel = append(baseDel, r.DeliveryRatio())
			continue
		}
		agDel = append(agDel, r.DeliveryRatio())
		goodput = append(goodput, r.MeanGoodput())
		recLat = append(recLat, ms(r.RecoveredLatencyMean))
		treeLat = append(treeLat, ms(r.TreeLatencyMean))
		bytes += float64(r.ControlBytes + r.PayloadBytes)
		for _, m := range r.Members {
			delivered += float64(m.Received)
		}
	}
	q["delivery_ratio"] = mean(agDel)
	q["goodput_pct"] = mean(goodput)
	q["recovery_latency_ms"] = mean(recLat)
	q["tree_latency_ms"] = mean(treeLat)
	q["bytes_per_delivery"] = ratio(bytes, delivered)
	if len(sw.stacks) > 1 {
		q["baseline_delivery_ratio"] = mean(baseDel)
	}
	return q
}

// tracedSimPass makes the traced pass: the same jobs with the
// MetricsWindow sampler on, under a CPU profile, and fills the
// per-layer metrics.
func tracedSimPass(sw simWorkload, jobs []simJob, untraced passResult, serialWall time.Duration, out *outcome, root int) error {
	rc0 := readRuntimeCounters()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	p := runPass(sw, jobs, true, !sw.serialCheck, out, root)
	cpu, err := prof.stop()
	if err != nil {
		return err
	}
	rc1 := readRuntimeCounters()

	for i, j := range jobs {
		t, u := p.results[i], untraced.results[i]
		if t == nil || u == nil {
			continue
		}
		if !reflect.DeepEqual(stripMeasurement(t), stripMeasurement(u)) {
			out.fail("%v: traced Result differs from the untraced run's", j)
		}
	}

	L := out.layer
	for _, l := range layerCPUNames {
		L[l+".cpu_s"] = cpu[l]
	}
	L["go.gc_cpu_s"] = rc1.gcCPU - rc0.gcCPU
	L["go.allocs_per_op"] = ratio(float64(rc1.allocs-rc0.allocs), float64(p.events))
	L["trace.overhead"] = ratio(p.wall.Seconds(), untraced.wall.Seconds())

	var elided uint64
	for _, r := range p.results {
		if r != nil {
			elided += r.ElidedKernel + r.ElidedRadio + r.ElidedMAC
		}
	}
	L["sim.events"] = float64(p.events)
	L["sim.events_per_s"] = ratio(float64(untraced.events), untraced.wall.Seconds())
	L["sim.elided_share"] = ratio(float64(elided), float64(p.events))
	if serialWall > 0 {
		L["sim.sharded_speedup"] = ratio(serialWall.Seconds(), untraced.wall.Seconds())
	}

	// Radio, MAC, channel and gossip counters of the treatment stack.
	var collisions, attempts, retries, rounds, replies, recovered, replyNew, replyDup float64
	var backoff, airtime, horizon time.Duration
	var byLayer [4]time.Duration
	queueMax := 0
	for i, j := range jobs {
		r := p.results[i]
		if r == nil || j.spec != sw.stacks[0] || r.Metrics == nil || r.Channel == nil {
			continue
		}
		collisions += float64(r.MACCollisions)
		for _, win := range r.Metrics.Windows {
			attempts += float64(win.MACTxAttempts)
			retries += float64(win.MACRetries)
			backoff += win.MACBackoff
			rounds += float64(win.GossipRounds)
			replies += float64(win.GossipReplies)
			queueMax = max(queueMax, win.QueueDepth)
		}
		for l := range byLayer {
			byLayer[l] += r.Channel.AirtimeByLayer[l]
		}
		airtime += r.Channel.TotalAirtime()
		horizon += jobConfig(sw, j).Duration
		for _, m := range r.Members {
			recovered += float64(m.Recovered)
			replyNew += float64(m.ReplyNew)
			replyDup += float64(m.ReplyDup)
		}
	}
	L["radio.collisions"] = collisions
	L["mac.tx_attempts"] = attempts
	L["mac.retry_ratio"] = ratio(retries, attempts)
	L["mac.backoff_s"] = backoff.Seconds()
	L["mac.queue_depth_max"] = float64(queueMax)
	L["chan.busy_fraction"] = ratio(airtime.Seconds(), horizon.Seconds())
	for l, name := range []string{"mac", "routing", "data", "gossip"} {
		L["chan.airtime_share."+name] = ratio(byLayer[l].Seconds(), airtime.Seconds())
	}
	L["gossip.rounds"] = rounds
	L["gossip.replies"] = replies
	L["gossip.useful_reply_ratio"] = ratio(replyNew, replyNew+replyDup)
	L["gossip.recovered"] = recovered
	return nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
