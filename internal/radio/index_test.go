package radio

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// unboundedModel hides the Speeder implementation of the wrapped model,
// forcing the grid index down its conservative per-timestamp refresh
// path.
type unboundedModel struct{ m mobility.Model }

func (u unboundedModel) Position(t sim.Time) geom.Point { return u.m.Position(t) }

// fuzzSpec describes one fuzz world's node population.
type fuzzSpec struct {
	seed     int64
	nodes    int
	area     geom.Rect
	maxSpeed float64
	// unbounded hides every seventh node's speed bound, which keeps the
	// grid index on its conservative paths: a refresh at every new
	// instant and a candidate list rebuilt for every transmission.
	unbounded bool
	// late holds back the last late nodes until lateAt, so nodes attach
	// after candidate lists were built; ops on them before then log
	// "absent".
	late   int
	lateAt sim.Time
	// listenAt, when positive, is when every fifth node gets a carrier
	// listener that logs its onsets. The listeners raise the medium's
	// carrier inflation, so every list built before then is too narrow.
	listenAt sim.Time
}

// fuzzWorld is one medium plus logs of everything observable.
type fuzzWorld struct {
	sched *sim.Scheduler
	m     *Medium
	trs   []*Transceiver
	log   []string

	// Grid-index coverage, counted outside the compared log: StartTx
	// calls that reused / (re)built the sender's candidate list, and
	// carrier reads made while the transmission grid was on.
	listReuses, listBuilds, gridSenses int
}

func newFuzzWorld(kind IndexKind, model ReceptionModel, spec fuzzSpec) *fuzzWorld {
	w := &fuzzWorld{sched: sim.NewScheduler(), trs: make([]*Transceiver, spec.nodes)}
	w.m = NewMedium(w.sched, Params{Range: 75, Index: kind, Model: model})
	root := sim.NewRNG(spec.seed)
	attachNode := func(i int) {
		var mob mobility.Model = mobility.NewWaypoint(mobility.WaypointConfig{
			Area: spec.area, MaxSpeed: spec.maxSpeed, MaxPause: 5 * time.Second,
		}, root.Derive(fmt.Sprintf("mob/%d", i)))
		if spec.unbounded && i%7 == 3 {
			mob = unboundedModel{m: mob}
		}
		id := pkt.NodeID(i + 1)
		tr, err := w.m.Attach(id, mob, func(frame any, from pkt.NodeID, ok bool) {
			w.log = append(w.log, fmt.Sprintf("rx@%v node=%d frame=%v from=%d ok=%v", w.sched.Now(), id, frame, from, ok))
		})
		if err != nil {
			panic(err)
		}
		w.trs[i] = tr
	}
	early := spec.nodes - spec.late
	for i := 0; i < early; i++ {
		attachNode(i)
	}
	if spec.late > 0 {
		w.sched.At(spec.lateAt, func() {
			for i := early; i < spec.nodes; i++ {
				attachNode(i)
			}
		})
	}
	if spec.listenAt > 0 {
		w.sched.At(spec.listenAt, func() {
			for i, tr := range w.trs {
				if tr == nil || i%5 != 0 {
					continue
				}
				i := i
				tr.SetCarrierListener(onsetLogger(func(end sim.Time, proven bool) {
					w.log = append(w.log, fmt.Sprintf("onset@%v node=%d end=%v proven=%v", w.sched.Now(), i, end, proven))
				}))
			}
		})
	}
	return w
}

// onsetLogger adapts a function to CarrierListener.
type onsetLogger func(end sim.Time, proven bool)

func (f onsetLogger) CarrierOnset(end sim.Time, proven bool) { f(end, proven) }

// Op kinds. The generic differentials draw from the first four.
const (
	opTx         = iota // one 2 ms frame
	opNeighbor          // NeighborsOf
	opSense             // CarrierBusyUntil
	opDegree            // MeanDegree
	opBackToBack        // three frames from one node, each starting as or just after the last ends
	opProbe             // CarrierProbe
	opBurst             // every node transmits at once, with staggered airtimes, sensed as it drains
)

// fuzzOp is one scheduled action, applied identically to both worlds.
type fuzzOp struct {
	at   sim.Time
	node int
	kind int
}

func (w *fuzzWorld) schedule(ops []fuzzOp) {
	for i, op := range ops {
		i, op := i, op
		w.sched.At(op.at, func() { w.apply(i, op) })
	}
}

func (w *fuzzWorld) apply(i int, op fuzzOp) {
	now := w.sched.Now()
	tr := w.trs[op.node]
	if tr == nil {
		w.log = append(w.log, fmt.Sprintf("absent@%v node=%d", now, op.node))
		return
	}
	switch op.kind {
	case opTx:
		w.tx(op.node, fmt.Sprintf("f%d", i), 2*time.Millisecond)
	case opNeighbor:
		w.log = append(w.log, fmt.Sprintf("nbr@%v node=%d %v", now, op.node, w.m.NeighborsOf(pkt.NodeID(op.node+1))))
	case opSense:
		w.noteGridSense()
		w.log = append(w.log, fmt.Sprintf("sense@%v node=%d until=%v", now, op.node, tr.CarrierBusyUntil()))
	case opDegree:
		w.log = append(w.log, fmt.Sprintf("deg@%v %v", now, w.m.MeanDegree()))
	case opBackToBack:
		w.tx(op.node, fmt.Sprintf("f%d.0", i), 2*time.Millisecond)
		w.sched.At(now+2*time.Millisecond, func() { w.tx(op.node, fmt.Sprintf("f%d.1", i), time.Millisecond) })
		w.sched.At(now+3*time.Millisecond+time.Microsecond, func() { w.tx(op.node, fmt.Sprintf("f%d.2", i), time.Millisecond) })
	case opProbe:
		w.noteGridSense()
		busy, reach := tr.CarrierProbe()
		w.log = append(w.log, fmt.Sprintf("probe@%v node=%d busy=%v reach=%v", now, op.node, busy, reach))
	case opBurst:
		for j, other := range w.trs {
			if other != nil {
				w.tx(j, fmt.Sprintf("f%d.b%d", i, j), time.Millisecond+sim.Time(j)*100*time.Microsecond)
			}
		}
		// Sense from rotating nodes while the burst drains through the
		// grid's switch-off count.
		for k := 1; k <= 14; k++ {
			kind := opSense
			if k%2 == 0 {
				kind = opProbe
			}
			next := fuzzOp{at: now + sim.Time(k)*400*time.Microsecond, node: (op.node + 7*k) % len(w.trs), kind: kind}
			w.sched.At(next.at, func() { w.apply(i, next) })
		}
	}
}

// tx starts one frame from node and logs the outcome, counting whether
// a grid index reused the sender's candidate list.
func (w *fuzzWorld) tx(node int, frame string, airtime sim.Time) {
	gi, _ := w.m.index.(*gridIndex)
	var before candList
	if gi != nil {
		before = gi.lists[node]
	}
	err := w.trs[node].StartTx(frame, airtime)
	w.log = append(w.log, fmt.Sprintf("tx@%v node=%d err=%v", w.sched.Now(), node, err != nil))
	if gi == nil || err != nil || !gi.bounded {
		return // unbounded worlds rebuild on every transmission
	}
	if after := gi.lists[node]; before.gen == after.gen && before.builtAt == after.builtAt && before.radius == after.radius {
		w.listReuses++
	} else {
		w.listBuilds++
	}
}

func (w *fuzzWorld) noteGridSense() {
	if gi, ok := w.m.index.(*gridIndex); ok && gi.txGridOn {
		w.gridSenses++
	}
}

// TestGridMatchesBruteUnderRandomMobility is the radio-level differential
// fuzz test: the grid and brute-force indexes must produce identical
// neighbour sets, carrier-sense and carrier-probe answers, listener
// onsets, degree metrics, reception logs and channel statistics while
// nodes move randomly. The cases cover fast movers that cross many grid
// cells, nodes with no declared speed bound, slow movers whose cached
// candidate lists live until drift nears the skin, listeners and nodes
// attached after lists were built, back-to-back frames from one node,
// and bursts that put more than txScanThreshold frames on the air and
// drain below half that, switching the transmission grid on and off.
func TestGridMatchesBruteUnderRandomMobility(t *testing.T) {
	area := geom.Rect{W: 400, H: 400}
	cases := []struct {
		name string
		spec fuzzSpec
	}{
		{"fast-unbounded/1", fuzzSpec{seed: 1, maxSpeed: 10, unbounded: true}},
		{"fast-unbounded/2", fuzzSpec{seed: 2, maxSpeed: 10, unbounded: true, listenAt: 60 * time.Second}},
		{"fast/3", fuzzSpec{seed: 3, maxSpeed: 10, listenAt: 60 * time.Second, late: 5, lateAt: 90 * time.Second}},
		{"slow/4", fuzzSpec{seed: 4, maxSpeed: 0.2, listenAt: 60 * time.Second, late: 5, lateAt: 90 * time.Second}},
		{"slow/5", fuzzSpec{seed: 5, maxSpeed: 0.2}},
	}
	for _, tc := range cases {
		spec := tc.spec
		spec.nodes, spec.area = 50, area
		opRNG := sim.NewRNG(spec.seed).Derive("ops")
		var ops []fuzzOp
		for i := 0; i < 3000; i++ {
			kind := opRNG.Intn(opBurst)
			if i%100 == 99 {
				kind = opBurst
			}
			ops = append(ops, fuzzOp{
				at:   opRNG.Duration(200 * time.Second),
				node: opRNG.Intn(spec.nodes),
				kind: kind,
			})
		}

		grid := newFuzzWorld(IndexGrid, ModelBatch, spec)
		brute := newFuzzWorld(IndexBrute, ModelBatch, spec)
		grid.schedule(ops)
		brute.schedule(ops)
		grid.sched.Run(250 * time.Second)
		brute.sched.Run(250 * time.Second)
		compareFuzzWorlds(t, tc.name, grid, brute, "grid", "brute")

		// The differential only means something if the new paths ran.
		if p := grid.m.PeakActiveTx(); p <= txScanThreshold {
			t.Fatalf("%s: peak %d frames on the air never switched the transmission grid on", tc.name, p)
		}
		gi := grid.m.index.(*gridIndex)
		if grid.gridSenses == 0 || gi.txGridOn {
			t.Fatalf("%s: %d carrier reads on the transmission grid, grid on at end = %v", tc.name, grid.gridSenses, gi.txGridOn)
		}
		if !spec.unbounded && (grid.listReuses == 0 || grid.listBuilds == 0) {
			t.Fatalf("%s: candidate lists reused %d times, built %d times", tc.name, grid.listReuses, grid.listBuilds)
		}
	}
}

// lineModel moves at constant velocity v from p0 and declares bound as
// its speed limit (which may exceed |v|: a bound only has to hold).
type lineModel struct {
	p0, v geom.Point
	bound float64
}

func (l lineModel) Position(t sim.Time) geom.Point { return l.p0.Add(l.v.Scale(t.Seconds())) }
func (l lineModel) MaxSpeed() float64              { return l.bound }

// jumpModel teleports from a to b at time at and declares no speed
// bound.
type jumpModel struct {
	a, b geom.Point
	at   sim.Time
}

func (j jumpModel) Position(t sim.Time) geom.Point {
	if t < j.at {
		return j.a
	}
	return j.b
}

// TestCandidateListBoundaries places nodes exactly where a cached
// candidate list is tight, which random mobility almost never does, and
// requires the grid to match the brute-force scan there:
//   - two nodes closing head-on at the speed bound, the receiver just
//     inside the keep radius of range+2·skin when the list is built and
//     in range when the transmitter reuses it one skin's drift later;
//   - a carrier listener attached after the list was built, sitting in
//     the uncertainty band the list's original radius did not cover;
//   - a node without a speed bound jumping into range of a static
//     transmitter, whose list no drift limit can keep valid.
func TestCandidateListBoundaries(t *testing.T) {
	const r = 75.0
	skin := r / skinDivisor
	type event struct {
		at     sim.Time
		node   int
		listen bool // attach a carrier listener instead of transmitting
	}
	cases := []struct {
		name   string
		models []mobility.Model
		events []event
		// want is the log line the grid run must contain.
		want string
	}{
		{
			name: "head-on at the skin limit",
			models: []mobility.Model{
				lineModel{v: geom.Point{X: 1}, bound: 1},
				lineModel{p0: geom.Point{X: r + 2*skin - 0.01}, v: geom.Point{X: -1}, bound: 1},
			},
			events: []event{{at: 0}, {at: sim.Time(skin * float64(time.Second))}},
			want:   "rx@4.688s node=2 frame=f1 from=1 ok=true",
		},
		{
			name: "listener attached after the build",
			models: []mobility.Model{
				mobility.Static{},
				lineModel{p0: geom.Point{X: r + 9.8}, bound: 400},
			},
			events: []event{{at: time.Millisecond}, {at: 2 * time.Millisecond, node: 1, listen: true}, {at: 3 * time.Millisecond}},
			want:   "onset@3ms node=2 end=3.5ms proven=false",
		},
		{
			name: "unbounded node jumps into range",
			models: []mobility.Model{
				mobility.Static{},
				jumpModel{a: geom.Point{X: 200}, b: geom.Point{X: 10}, at: time.Second},
			},
			events: []event{{at: time.Second / 2}, {at: 3 * time.Second / 2}},
			want:   "rx@1.5005s node=2 frame=f1 from=1 ok=true",
		},
	}
	for _, tc := range cases {
		var logs [2][]string
		for k, kind := range []IndexKind{IndexGrid, IndexBrute} {
			sched := sim.NewScheduler()
			m := NewMedium(sched, Params{Range: r, Index: kind})
			log := &logs[k]
			var trs []*Transceiver
			for i, mob := range tc.models {
				id := pkt.NodeID(i + 1)
				trs = append(trs, attach(t, m, id, mob, func(frame any, from pkt.NodeID, ok bool) {
					*log = append(*log, fmt.Sprintf("rx@%v node=%d frame=%v from=%d ok=%v", sched.Now(), id, frame, from, ok))
				}))
			}
			for j, ev := range tc.events {
				j, ev := j, ev
				sched.At(ev.at, func() {
					tr := trs[ev.node]
					if ev.listen {
						tr.SetCarrierListener(onsetLogger(func(end sim.Time, proven bool) {
							*log = append(*log, fmt.Sprintf("onset@%v node=%d end=%v proven=%v", sched.Now(), tr.ID(), end, proven))
						}))
						return
					}
					if err := tr.StartTx(fmt.Sprintf("f%d", j), testAirtime); err != nil {
						t.Fatal(err)
					}
				})
			}
			sched.Run(time.Minute)
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("%s: grid and brute diverged:\ngrid:  %q\nbrute: %q", tc.name, logs[0], logs[1])
		}
		found := false
		for _, line := range logs[0] {
			found = found || line == tc.want
		}
		if !found {
			t.Fatalf("%s: %q missing from %q", tc.name, tc.want, logs[0])
		}
	}
}

// TestGridNeighborsMatchBruteStatic pins the simplest invariant: with
// static nodes the two indexes agree on every neighbour query, including
// nodes exactly at range.
func TestGridNeighborsMatchBruteStatic(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 75, Y: 0}, {X: 76, Y: 0}, {X: 0, Y: 74.999}, {X: 300, Y: 300}}
	var mediums []*Medium
	for _, kind := range []IndexKind{IndexGrid, IndexBrute} {
		sched := sim.NewScheduler()
		m := NewMedium(sched, Params{Range: 75, Index: kind})
		for i, p := range positions {
			attach(t, m, pkt.NodeID(i+1), mobility.Static{P: p}, nil)
		}
		mediums = append(mediums, m)
	}
	for i := range positions {
		id := pkt.NodeID(i + 1)
		g, b := mediums[0].NeighborsOf(id), mediums[1].NeighborsOf(id)
		if !reflect.DeepEqual(g, b) {
			t.Fatalf("node %d: grid %v, brute %v", id, g, b)
		}
	}
	if g, b := mediums[0].MeanDegree(), mediums[1].MeanDegree(); g != b {
		t.Fatalf("MeanDegree: grid %v, brute %v", g, b)
	}
}

// densitySide is the side of the square field on which n nodes have
// the given expected degree at the 75 m range: side² = n·π·75²/degree.
func densitySide(n int, degree float64) float64 {
	return math.Sqrt(float64(n) * math.Pi * 75 * 75 / degree)
}

// benchMedium builds n uniformly placed slow waypoint nodes on a side×side
// field.
func benchMedium(tb testing.TB, kind IndexKind, model ReceptionModel, n int, side float64) (*sim.Scheduler, []*Transceiver) {
	tb.Helper()
	area := geom.Rect{W: side, H: side}
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 75, Index: kind, Model: model})
	root := sim.NewRNG(7)
	trs := make([]*Transceiver, n)
	for i := 0; i < n; i++ {
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Area: area, MaxSpeed: 0.2, MaxPause: 80 * time.Second,
		}, root.Derive(fmt.Sprintf("mob/%d", i)))
		trs[i] = attach(tb, m, pkt.NodeID(i+1), mob, nil)
	}
	return sched, trs
}

// largeScaleSide keeps the large-scale family's density (40 nodes on
// 200 m × 200 m, degree ≈ 15) at any node count.
func largeScaleSide(n int) float64 { return 200 * math.Sqrt(float64(n)/40) }

// benchStartTx measures the radio hot path in isolation: repeated
// transmissions from rotating nodes, each scheduling receptions for its
// in-range neighbours, plus the carrier sensing the MAC would do.
func benchStartTx(b *testing.B, kind IndexKind, model ReceptionModel, n int, side float64) {
	sched, trs := benchMedium(b, kind, model, n, side)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trs[i%n]
		_ = tr.CarrierBusyUntil()
		_ = tr.StartTx(i, 100*time.Microsecond)
		if i%16 == 15 {
			sched.Run(sched.Now() + time.Millisecond)
		}
	}
	sched.Run(sched.Now() + time.Second)
}

func BenchmarkStartTx250Grid(b *testing.B) {
	benchStartTx(b, IndexGrid, ModelBatch, 250, largeScaleSide(250))
}
func BenchmarkStartTx250Brute(b *testing.B) {
	benchStartTx(b, IndexBrute, ModelBatch, 250, largeScaleSide(250))
}
func BenchmarkStartTx1000Grid(b *testing.B) {
	benchStartTx(b, IndexGrid, ModelBatch, 1000, largeScaleSide(1000))
}
func BenchmarkStartTx1000Brute(b *testing.B) {
	benchStartTx(b, IndexBrute, ModelBatch, 1000, largeScaleSide(1000))
}

// BenchmarkStartTxDense is the dense family's radio regime: 100 nodes
// at degree 30, moving at 0.2 m/s.
func BenchmarkStartTxDense(b *testing.B) {
	benchStartTx(b, IndexGrid, ModelBatch, 100, densitySide(100, 30))
}

// The RxRef variants isolate the reception path against the batched
// default on the same grid index.
func BenchmarkStartTx250GridRxRef(b *testing.B) {
	benchStartTx(b, IndexGrid, ModelRef, 250, largeScaleSide(250))
}
func BenchmarkStartTx1000GridRxRef(b *testing.B) {
	benchStartTx(b, IndexGrid, ModelRef, 1000, largeScaleSide(1000))
}

// TestStartTxWarmListsAllocFree pins the batched hot path's allocation
// contract: once every node's candidate list is built and the pools are
// warm, a transmission and its finish processing allocate nothing.
func TestStartTxWarmListsAllocFree(t *testing.T) {
	const n = 100
	sched, trs := benchMedium(t, IndexGrid, ModelBatch, n, densitySide(n, 30))
	var frame any = "frame"
	const airtime = 100 * time.Microsecond
	for _, tr := range trs {
		if err := tr.StartTx(frame, airtime); err != nil {
			t.Fatal(err)
		}
		sched.Run(sched.Now() + airtime)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		_ = trs[i%n].StartTx(frame, airtime)
		sched.Run(sched.Now() + airtime)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm StartTx + finish allocates %v objects per frame, want 0", allocs)
	}
	if d := trs[0].medium.Stats().Deliveries; d == 0 {
		t.Fatal("degenerate medium: no deliveries")
	}
}

func benchNeighbors(b *testing.B, kind IndexKind, n int) {
	_, trs := benchMedium(b, kind, ModelBatch, n, largeScaleSide(n))
	m := trs[0].medium
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.NeighborsOf(pkt.NodeID(i%n + 1))
	}
}

func BenchmarkNeighborsOf250Grid(b *testing.B)   { benchNeighbors(b, IndexGrid, 250) }
func BenchmarkNeighborsOf250Brute(b *testing.B)  { benchNeighbors(b, IndexBrute, 250) }
func BenchmarkNeighborsOf1000Grid(b *testing.B)  { benchNeighbors(b, IndexGrid, 1000) }
func BenchmarkNeighborsOf1000Brute(b *testing.B) { benchNeighbors(b, IndexBrute, 1000) }
