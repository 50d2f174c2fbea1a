package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/runtime/netrt"
	"anongossip/internal/scenario"
	"anongossip/internal/stack"
)

// liveWorkload is an in-process cluster of live netrt nodes driven by an
// open-loop publisher.
type liveWorkload struct {
	nodes     int
	sources   int
	rate      float64       // publishes per second, all sources together
	session   time.Duration // publishing time per session
	timeScale float64
	stack     stack.Spec
	settle    time.Duration // wall time between join and the first publish
	drain     time.Duration // longest wait for deliveries after the last publish
	// lateBound voids the run when the generator's 99th-percentile
	// lateness exceeds it: the load was then not the load asked for.
	lateBound time.Duration
	setupReps int
}

// liveLoopback is 16 flood+gossip nodes at TimeScale 10, four sources
// round-robin at 500 publishes/s in sessions of 5 s.
var liveLoopback = liveWorkload{
	nodes:     16,
	sources:   4,
	rate:      500,
	session:   5 * time.Second,
	timeScale: 10,
	stack:     stack.Spec{Routing: "flood", Recovery: "gossip"},
	settle:    100 * time.Millisecond,
	drain:     5 * time.Second,
	lateBound: 20 * time.Millisecond,
	setupReps: 101,
}

// delivery is one application delivery seen at a member.
type delivery struct {
	key pkt.SeqKey
	at  time.Time
}

// publish is one scheduled publish and what became of it.
type publish struct {
	key  pkt.SeqKey
	due  time.Time
	late time.Duration
	call time.Duration
	err  error
}

// sessionResult is one publish session's measurements.
type sessionResult struct {
	wall      time.Duration // first due time to the last delivery (or drain timeout)
	cpu       time.Duration
	published int
	expected  int       // publishes x subscribers
	delivered int       // unique, valid deliveries
	latencies []float64 // ms, sorted
	late      []float64 // ms, sorted
	calls     []float64 // us, sorted
	heapPer   float64
	framesIn  uint64
	drops     uint64
	malformed uint64
	recovered uint64
	replyNew  uint64
	replyDup  uint64
	allocs    uint64
	gcCPU     float64
	problems  []string
}

// cluster is one booted set of live nodes.
type cluster struct {
	tr    *netrt.ChanTransport
	nodes []*netrt.ProtocolNode
}

// boot builds, starts and joins the cluster. onDeliver (may be nil) is
// subscribed on every node before it starts.
func (lw liveWorkload) boot(seed int64, onDeliver func(i int, d *pkt.Data)) (*cluster, error) {
	c := &cluster{tr: netrt.NewChanTransport()}
	for i := 0; i < lw.nodes; i++ {
		pn, err := netrt.NewProtocolNode(netrt.ProtocolConfig{
			Node:  netrt.NodeConfig{ID: pkt.NodeID(i + 1), TimeScale: lw.timeScale},
			Stack: lw.stack,
			Seed:  seed,
		}, c.tr)
		if err != nil {
			c.close()
			return nil, err
		}
		if onDeliver != nil {
			i := i
			pn.OnDeliver(func(_ pkt.GroupID, d *pkt.Data, _ bool) { onDeliver(i, d) })
		}
		c.nodes = append(c.nodes, pn)
	}
	for _, pn := range c.nodes {
		pn.Start()
	}
	for _, pn := range c.nodes {
		if err := pn.Join(scenario.Group); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// close stops every node and waits for its event loop to end.
func (c *cluster) close() {
	for _, pn := range c.nodes {
		pn.Close()
	}
}

// runLive runs the live workload: set-ups, publish sessions, checks and,
// when tracing, one traced session.
func runLive(lw liveWorkload, opts options) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	if opts.trace {
		out.spans = newSpanLog()
	}
	root := out.spans.begin(0, "workload")
	defer out.spans.end(root)
	start := time.Now()

	var setups []float64
	for i := 0; i < lw.setupReps; i++ {
		id := out.spans.begin(root, "setup")
		t0 := time.Now()
		c, err := lw.boot(opts.seed, nil)
		setups = append(setups, time.Since(t0).Seconds())
		out.spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("live set-up: %w", err)
		}
		c.close()
	}
	out.e2e["setup_s"] = median(setups)

	var sessions []sessionResult
	for {
		s, err := lw.runSession(opts.seed+int64(len(sessions)), nil, 0)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
		walls := make([]float64, len(sessions))
		for i, x := range sessions {
			walls[i] = x.wall.Seconds()
		}
		if opts.trace || time.Since(start).Seconds()+median(walls) > opts.seconds {
			break
		}
	}

	var walls, cpus, heaps, lat []float64
	for _, s := range sessions {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, ratio(float64(s.cpu.Microseconds()), float64(s.delivered)))
		heaps = append(heaps, s.heapPer)
		lat = append(lat, s.latencies...)
		out.attempted += s.expected
		out.failed += s.expected - s.delivered
		for _, p := range s.problems {
			out.fail("%s", p)
		}
		if p99 := quantile(s.late, 0.99); p99 > ms(lw.lateBound) {
			out.fail("generator ran late: p99 lateness %.2f ms exceeds %.0f ms, run void", p99, ms(lw.lateBound))
		}
	}
	sort.Float64s(lat)
	out.e2e["run_s"] = median(walls)
	out.e2e["cpu_us_per_op"] = median(cpus)
	out.e2e["heap_per_node_b"] = median(heaps)

	var expected, delivered int
	for _, s := range sessions {
		expected += s.expected
		delivered += s.delivered
	}
	out.quality = map[string]float64{
		"live_p50_ms":         quantile(lat, 0.5),
		"live_p99_ms":         quantile(lat, 0.99),
		"live_p999_ms":        quantile(lat, 0.999),
		"live_samples":        float64(len(lat)),
		"live_delivery_ratio": ratio(float64(delivered), float64(expected)),
	}
	out.extra = append(out.extra, fmt.Sprintf("per-session cpu_us_per_op: %.2f", cpus))
	last := sessions[len(sessions)-1]
	out.extra = append(out.extra, fmt.Sprintf("sessions: %d; %d publishes at %.0f/s from %d sources to %d nodes; generator p99 lateness %.3f ms",
		len(sessions), last.published, lw.rate, lw.sources, lw.nodes, quantile(last.late, 0.99)))

	if opts.trace {
		sid := out.spans.begin(root, "session", "traced", "true")
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		t, err := lw.runSession(opts.seed, out.spans, sid)
		cpu, perr := prof.stop()
		out.spans.end(sid)
		if err != nil {
			return nil, err
		}
		if perr != nil {
			return nil, perr
		}
		for _, p := range t.problems {
			out.fail("traced session: %s", p)
		}
		lw.layerMetrics(out.layer, t, cpu, median(cpus))
	}
	return out, nil
}

// layerMetrics fills the per-layer metrics of a traced session.
func (lw liveWorkload) layerMetrics(L map[string]float64, t sessionResult, cpu map[string]float64, untracedCPU float64) {
	for _, l := range layerCPUNames {
		L[l+".cpu_s"] = cpu[l]
	}
	L["go.gc_cpu_s"] = t.gcCPU
	L["go.allocs_per_op"] = ratio(float64(t.allocs), float64(t.delivered))
	L["gossip.useful_reply_ratio"] = ratio(float64(t.replyNew), float64(t.replyNew+t.replyDup))
	L["gossip.recovered"] = float64(t.recovered)
	L["netrt.publish_call_us"] = median(t.calls)
	L["netrt.frames_per_delivery"] = ratio(float64(t.framesIn), float64(t.delivered))
	L["netrt.inbox_drops"] = float64(t.drops)
	L["netrt.malformed"] = float64(t.malformed)
	L["loadgen.late_ms"] = quantile(t.late, 0.99)
	L["trace.overhead"] = ratio(ratio(float64(t.cpu.Microseconds()), float64(t.delivered)), untracedCPU)
}

// runSession boots a fresh cluster, publishes open loop for lw.session,
// drains, and checks the deliveries: no unpublished key, no duplicate
// (member, key) pair.
func (lw liveWorkload) runSession(seed int64, spans *spanLog, parent int) (sessionResult, error) {
	var s sessionResult
	n := int(lw.rate * lw.session.Seconds())
	interval := time.Duration(float64(time.Second) / lw.rate)
	subscribers := lw.nodes - 1

	// Recording buffers are allocated before the heap baseline so the
	// heap delta is the cluster's own.
	recs := make([][]delivery, lw.nodes)
	for i := range recs {
		recs[i] = make([]delivery, 0, n+n/4)
	}
	pubs := make([]publish, n)
	var count atomic.Int64
	onDeliver := func(i int, d *pkt.Data) {
		recs[i] = append(recs[i], delivery{key: d.Key(), at: time.Now()})
		count.Add(1)
	}
	base := liveHeap()

	c, err := lw.boot(seed, onDeliver)
	if err != nil {
		return s, fmt.Errorf("live boot: %w", err)
	}
	time.Sleep(lw.settle)

	// Sources: lw.sources nodes drawn from the seed, round-robin.
	perm := rand.New(rand.NewSource(seed)).Perm(lw.nodes)[:lw.sources]
	rc0, cpu0 := readRuntimeCounters(), processCPU()
	t0 := time.Now()
	for i := range pubs {
		p := &pubs[i]
		p.due = t0.Add(time.Duration(i) * interval)
		if d := time.Until(p.due); d > 0 {
			time.Sleep(d)
		}
		callStart := time.Now()
		p.late = callStart.Sub(p.due)
		p.key, p.err = c.nodes[perm[i%lw.sources]].Publish(scenario.Group)
		end := time.Now()
		p.call = end.Sub(callStart)
		spans.record(parent, "netrt.Publish", callStart, end)
	}
	for _, p := range pubs {
		if p.err == nil {
			s.published++
		}
	}
	s.expected = n * subscribers
	want := int64(s.published * subscribers)
	drainID := spans.begin(parent, "drain")
	deadline := time.Now().Add(lw.drain)
	lastCount, lastAt := count.Load(), time.Now()
	for {
		cur := count.Load()
		if cur != lastCount {
			lastCount, lastAt = cur, time.Now()
		}
		if cur >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	spans.end(drainID)
	s.cpu = processCPU() - cpu0
	rc1 := readRuntimeCounters()
	s.allocs, s.gcCPU = rc1.allocs-rc0.allocs, rc1.gcCPU-rc0.gcCPU
	if lastCount > 0 {
		s.wall = lastAt.Sub(t0)
	} else {
		s.wall = time.Since(t0)
	}
	s.heapPer = heapPerNode(liveHeap(), base, lw.nodes)

	for _, pn := range c.nodes {
		st := pn.Runtime().Stats()
		s.framesIn += st.FramesIn.Load()
		s.drops += st.InboxDrops.Load()
		s.malformed += st.Malformed.Load()
		if rs, err := pn.RecoveryStats(); err == nil {
			s.recovered += rs.Recovered
			s.replyNew += rs.ReplyNew
			s.replyDup += rs.ReplyDup
		}
	}
	c.close() // every event loop has ended: recs are safe to read

	for _, p := range pubs {
		if p.err != nil {
			s.problems = append(s.problems, fmt.Sprintf("publish error: %v", p.err))
			continue
		}
		s.late = append(s.late, ms(p.late))
		s.calls = append(s.calls, float64(p.call.Nanoseconds())/1e3)
	}
	var problems []string
	s.latencies, problems = checkDeliveries(pubs, recs)
	s.delivered = len(s.latencies)
	s.problems = append(s.problems, problems...)
	if len(s.problems) > 10 {
		s.problems = append(s.problems[:10], fmt.Sprintf("... and %d more", len(s.problems)-10))
	}
	sort.Float64s(s.latencies)
	sort.Float64s(s.late)
	sort.Float64s(s.calls)
	return s, nil
}

// checkDeliveries matches every member's deliveries against the
// publishes: a key nobody published, a (member, key) pair delivered
// twice, or a member delivered its own publish is a failed check. It
// returns the latency (ms, from the due time) of every valid delivery.
func checkDeliveries(pubs []publish, recs [][]delivery) (latencies []float64, problems []string) {
	due := make(map[pkt.SeqKey]time.Time, len(pubs))
	for _, p := range pubs {
		if p.err == nil {
			due[p.key] = p.due
		}
	}
	for i, rs := range recs {
		seen := make(map[pkt.SeqKey]bool, len(rs))
		for _, r := range rs {
			t, ok := due[r.key]
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("node %d delivered unpublished key %v", i+1, r.key))
			case seen[r.key]:
				problems = append(problems, fmt.Sprintf("node %d delivered %v twice", i+1, r.key))
			case r.key.Origin == pkt.NodeID(i+1):
				problems = append(problems, fmt.Sprintf("node %d delivered its own publish %v", i+1, r.key))
			default:
				seen[r.key] = true
				latencies = append(latencies, ms(r.at.Sub(t)))
			}
		}
	}
	return latencies, problems
}
