package main

// metricDef names one reported metric. what says how it is measured;
// moves names the end-to-end metric (and workload) a per-layer metric
// should move, the prediction table of README.md.
type metricDef struct {
	name, unit string
	what       string
	moves      string
}

// endToEnd are the metrics every workload reports with tracing off.
// Each has a meaning on every workload (README.md spells out the
// per-workload operation), so none is ever zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", what: "world assembly: Run cut to a horizon before the first event (live: build, start and join the cluster); median of repeated set-ups"},
	{name: "run_s", unit: "s", what: "host wall time of one pass of the workload, median over passes (live: one publish session including drain)"},
	{name: "cpu_us_per_op", unit: "us", what: "process CPU per operation: per logical simulation event, per live delivery"},
	{name: "heap_per_node_b", unit: "B", what: "live heap per node after a run (forced GC, minus the heap before the world was built)"},
}

// quality are workload-specific end-to-end numbers: they exist on some
// workloads only, so they ride in the per-layer set (zero where the
// workload has no such quantity) and in the human-readable table.
var quality = []metricDef{
	{name: "delivery_ratio", unit: "ratio", what: "Result.DeliveryRatio of MAODV+AG, mean over seeds; on paper-mobile it must exceed baseline_delivery_ratio (checked)"},
	{name: "baseline_delivery_ratio", unit: "ratio", what: "Result.DeliveryRatio of bare MAODV, mean over seeds"},
	{name: "goodput_pct", unit: "%", what: "paper Fig. 8 goodput of MAODV+AG, mean over seeds"},
	{name: "recovery_latency_ms", unit: "ms", what: "simulated RecoveredLatencyMean of MAODV+AG, mean over seeds"},
	{name: "tree_latency_ms", unit: "ms", what: "simulated TreeLatencyMean of MAODV+AG, mean over seeds"},
	{name: "bytes_per_delivery", unit: "B", what: "(control + payload bytes) / packets delivered, MAODV+AG"},
	{name: "live_p50_ms", unit: "ms", what: "median publish-to-deliver latency, timed from the publish's due time"},
	{name: "live_p99_ms", unit: "ms", what: "99th-percentile publish-to-deliver latency"},
	{name: "live_p999_ms", unit: "ms", what: "99.9th-percentile latency: the highest with at least ten samples beyond it"},
	{name: "live_samples", unit: "count", what: "latency samples behind the live percentiles"},
	{name: "live_delivery_ratio", unit: "ratio", what: "deliveries / (publishes x subscribers)"},
}

// layerDefs are the per-layer metrics proper, measured on the traced
// pass.
var layerDefs = []metricDef{
	{name: "sim.cpu_s", unit: "s", moves: "run_s on dense-storm and scale-10k"},
	{name: "radio.cpu_s", unit: "s", moves: "run_s on dense-storm"},
	{name: "mac.cpu_s", unit: "s", moves: "run_s on dense-storm"},
	{name: "mobility.cpu_s", unit: "s", moves: "run_s on paper-mobile"},
	{name: "routing.cpu_s", unit: "s", moves: "run_s, setup_s on scale-10k"},
	{name: "gossip.cpu_s", unit: "s", moves: "run_s on paper-mobile"},
	{name: "node.cpu_s", unit: "s", moves: "run_s, setup_s on scale-10k"},
	{name: "scenario.cpu_s", unit: "s", moves: "setup_s on scale-10k"},
	{name: "netrt.cpu_s", unit: "s", moves: "cpu_us_per_op on live-loopback"},
	{name: "pkt.cpu_s", unit: "s", moves: "cpu_us_per_op on live-loopback"},
	{name: "other.cpu_s", unit: "s", moves: "run_s (Go runtime and benchmark frames below no repo layer)"},
	{name: "go.gc_cpu_s", unit: "s", moves: "run_s and heap_per_node_b on scale-10k"},
	{name: "sim.events", unit: "count", moves: "run_s on dense-storm and scale-10k"},
	{name: "sim.events_per_s", unit: "1/s", moves: "run_s on dense-storm and scale-10k"},
	{name: "sim.elided_share", unit: "ratio", moves: "run_s on dense-storm and scale-10k"},
	{name: "sim.sharded_speedup", unit: "ratio", moves: "run_s on scale-10k"},
	{name: "radio.collisions", unit: "count", moves: "delivery_ratio, tree_latency_ms on dense-storm"},
	{name: "mac.tx_attempts", unit: "count", moves: "delivery_ratio, tree_latency_ms on dense-storm"},
	{name: "mac.retry_ratio", unit: "ratio", moves: "delivery_ratio, tree_latency_ms on dense-storm"},
	{name: "mac.backoff_s", unit: "s", moves: "tree_latency_ms on dense-storm"},
	{name: "mac.queue_depth_max", unit: "count", moves: "tree_latency_ms on dense-storm"},
	{name: "chan.busy_fraction", unit: "ratio", moves: "delivery_ratio, bytes_per_delivery on dense-storm"},
	{name: "chan.airtime_share.mac", unit: "ratio", moves: "delivery_ratio, bytes_per_delivery on dense-storm"},
	{name: "chan.airtime_share.routing", unit: "ratio", moves: "delivery_ratio, bytes_per_delivery on dense-storm"},
	{name: "chan.airtime_share.data", unit: "ratio", moves: "delivery_ratio, bytes_per_delivery on dense-storm"},
	{name: "chan.airtime_share.gossip", unit: "ratio", moves: "delivery_ratio, bytes_per_delivery on dense-storm"},
	{name: "gossip.rounds", unit: "count", moves: "delivery_ratio, goodput_pct on paper-mobile"},
	{name: "gossip.replies", unit: "count", moves: "delivery_ratio, goodput_pct on paper-mobile; not bytes_per_delivery on dense-storm"},
	{name: "gossip.useful_reply_ratio", unit: "ratio", moves: "goodput_pct, recovery_latency_ms on paper-mobile"},
	{name: "gossip.recovered", unit: "count", moves: "delivery_ratio, recovery_latency_ms on paper-mobile"},
	{name: "go.allocs_per_op", unit: "count", moves: "run_s, heap_per_node_b on scale-10k; cpu_us_per_op on live-loopback"},
	{name: "netrt.publish_call_us", unit: "us", moves: "live_p50_ms on live-loopback"},
	{name: "netrt.frames_per_delivery", unit: "ratio", moves: "cpu_us_per_op on live-loopback"},
	{name: "netrt.inbox_drops", unit: "count", moves: "live_delivery_ratio, live_p99_ms on live-loopback"},
	{name: "netrt.malformed", unit: "count", moves: "live_delivery_ratio, live_p99_ms on live-loopback"},
	{name: "loadgen.late_ms", unit: "ms", moves: "live_delivery_ratio, live_p99_ms on live-loopback"},
	{name: "trace.overhead", unit: "ratio", moves: "nothing: traced over untraced cost of the same pass"},
}

// perLayer is everything a traced run reports.
var perLayer = append(append([]metricDef{}, layerDefs...), quality...)
