package radio

import (
	"math/bits"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/sim"
)

// IndexKind selects the neighbour index implementation backing a Medium.
type IndexKind int

const (
	// IndexGrid (the default) buckets node positions into a uniform
	// spatial hash with cell size equal to the transmission range, so
	// StartTx and carrier sensing touch only nearby nodes: O(local
	// degree) per query instead of O(total nodes).
	IndexGrid IndexKind = iota
	// IndexBrute scans every transceiver and every active transmission
	// on each query — the original O(N) implementation, kept as the
	// reference for differential testing. Both kinds produce
	// bit-identical simulations for the same seed.
	IndexBrute
)

// String names the index kind for benchmarks and logs.
func (k IndexKind) String() string {
	switch k {
	case IndexGrid:
		return "grid"
	case IndexBrute:
		return "brute"
	default:
		return "IndexKind(?)"
	}
}

// NeighborIndex answers the medium's two spatial questions: which
// transceivers might currently be near a point, and which in-flight
// transmissions cover it. Implementations live in this package (see
// IndexKind); the interface exists to keep Medium's hot paths decoupled
// from the lookup strategy and to allow differential testing between
// them.
//
// ForEachCandidate visits, in attach order, a superset of the
// transceivers whose position at time now lies within radius of center;
// callers must apply the exact distance predicate against fresh
// positions themselves. ForEachTxInRange visits exactly the
// transmissions still on the air at now whose origin lies within radius
// of center (origins are fixed, so the index applies the exact
// predicate); visit order is unspecified, so callers must combine
// results order-independently.
type NeighborIndex interface {
	Attach(t *Transceiver)
	ForEachCandidate(now sim.Time, center geom.Point, radius float64, fn func(*Transceiver))
	// TxCandidates is StartTx's receiver walk: the attach indexes, in
	// ascending order, of a superset of the transceivers within radius
	// of center, from's position at now (from itself may be included).
	// The slice is owned by the index and valid until its next
	// mutation. It may only be called in solo context: the grid index
	// builds its per-transmitter lists here.
	TxCandidates(now sim.Time, from *Transceiver, center geom.Point, radius float64) []int32
	AddTx(tx *transmission)
	RemoveTx(tx *transmission)
	// HasTx reports whether any transmission is tracked at all — the
	// cheap idle-channel check carrier sensing does before computing
	// the sensing node's position.
	HasTx() bool
	ForEachTxInRange(now sim.Time, center geom.Point, radius float64, fn func(*transmission))
}

// bruteIndex is the original linear scan over all transceivers and all
// active transmissions.
type bruteIndex struct {
	nodes  []*Transceiver
	ids    []int32 // every attach index, StartTx's candidate list
	active []*transmission
}

var _ NeighborIndex = (*bruteIndex)(nil)

func newBruteIndex() *bruteIndex { return &bruteIndex{} }

func (b *bruteIndex) Attach(t *Transceiver) {
	b.ids = append(b.ids, int32(len(b.nodes)))
	b.nodes = append(b.nodes, t)
}

func (b *bruteIndex) ForEachCandidate(_ sim.Time, _ geom.Point, _ float64, fn func(*Transceiver)) {
	for _, t := range b.nodes {
		fn(t)
	}
}

func (b *bruteIndex) TxCandidates(sim.Time, *Transceiver, geom.Point, float64) []int32 {
	return b.ids
}

func (b *bruteIndex) AddTx(tx *transmission) { b.active = append(b.active, tx) }

func (b *bruteIndex) RemoveTx(tx *transmission) {
	for i, a := range b.active {
		if a == tx {
			last := len(b.active) - 1
			b.active[i] = b.active[last]
			b.active[last] = nil
			b.active = b.active[:last]
			return
		}
	}
}

func (b *bruteIndex) HasTx() bool { return len(b.active) > 0 }

func (b *bruteIndex) ForEachTxInRange(now sim.Time, center geom.Point, radius float64, fn func(*transmission)) {
	r2 := radius * radius
	for _, tx := range b.active {
		if tx.end <= now {
			continue
		}
		if center.Dist2(tx.origin) <= r2 {
			fn(tx)
		}
	}
}

// gridIndex backs the medium with two spatial hashes — one over node
// positions (refreshed lazily on a time-epoch basis) and one over
// transmission origins (exact, since origins never move) — plus a
// cached receiver-candidate list per transmitter.
//
// Node buckets go stale as nodes move. Each mobility model reports a
// conservative max speed (mobility.Speeder), so a position bucketed at
// time t0 lies within maxSpeed·(now−t0) metres of the node's true
// position. The index re-buckets all nodes only when that drift bound
// would exceed `slack`, and every candidate query inflates its radius
// by `slack`; together these guarantee the candidate set is a superset
// of the true in-range set, which the caller then filters with exact
// positions. Re-bucketing is O(nodes) but runs at most once per
// slack/maxSpeed of simulated time — amortised across the many events
// in between — and moves a node between cells only when it crossed a
// cell boundary.
//
// The candidate lists are Verlet neighbour lists (DESIGN.md §2): a
// transmitter's list holds every node within radius+2·skin of it at
// build time, so until either endpoint can have drifted by skin it is
// a superset of the nodes within radius, walked without hashing a
// cell. The transmission-origin grid only pays off with many frames on
// the air, so it is maintained only while the count is high.
type gridIndex struct {
	sched *sim.Scheduler

	nodes   []*Transceiver
	grid    *geom.Grid
	slack   float64
	maxSpd  float64 // max over attached nodes' speed bounds
	bounded bool    // false once any model lacks a speed bound

	lastRefresh sim.Time
	refreshed   bool // lastRefresh is meaningful (first refresh happened)

	// lists holds one candidate list per attached node (by attach
	// index); a node's list is built on its first transmission, so
	// nodes that never transmit keep an empty entry. attachGen counts
	// attaches: a list built under an older generation may miss a node
	// attached since, so it is rebuilt.
	lists     []candList
	skin      float64
	attachGen uint64

	active []*transmission
	// txGrid and txByID index the origins of the frames on the air, but
	// only while txGridOn: switched on when more than txScanThreshold
	// frames are on the air, off again below half that (see AddTx).
	txGrid   *geom.Grid
	txByID   map[int]*transmission
	txGridOn bool
	nextTx   int

	scratch []int
	// seen is a reusable bitset over node ids: candidate ids are marked,
	// then visited word-by-word in ascending id (= attach) order. This
	// replaces a per-query sort with O(candidates + words) work.
	seen []uint64
}

// candList is one transmitter's cached receiver candidates: attach
// indexes in ascending order of every other node within
// radius+2·skin+listMargin of the transmitter at builtAt.
type candList struct {
	ids     []int32
	builtAt sim.Time
	radius  float64 // query radius the list was built for
	gen     uint64  // gridIndex.attachGen at build time; 0 = never built
}

// txScanThreshold is the active-transmission count above which the
// transmission-origin grid switches on (and below half of which it
// switches off again); while it is off, ForEachTxInRange scans the
// plain slice. Carrier sensing runs on every MAC backoff step, and with
// only a handful of frames on the air a cache-friendly linear scan
// beats the grid's cell hashing — and skipping the grid spares every
// frame its map inserts and deletes. The grid pays off once spatial
// reuse puts many concurrent frames on a large field. Both paths apply
// the same exact predicate, and CarrierBusyUntil combines results
// order-independently, so the switch cannot change simulation results.
const txScanThreshold = 32

// skinDivisor sizes the candidate-list skin as range/skinDivisor. A
// list lives until the fastest node could have drifted one skin (2.3 s
// at 75 m and 2 m/s) and carries the nodes in a ring 2·skin wide around
// the query disc (≈27% more area than the disc at skin = range/16).
// A thicker skin means fewer rebuilds but longer walks.
const skinDivisor = 16

// listMargin widens the list's keep radius by a micrometre so that the
// rounding in interpolated positions (and the truncation of leg
// durations to whole nanoseconds, which lets a node outrun its speed
// bound by about a nanosecond's travel per leg) can never drop a node
// the exact predicate would admit.
const listMargin = 1e-6

var _ NeighborIndex = (*gridIndex)(nil)

// newGridIndex sizes cells to the transmission range and allows node
// buckets to go stale by a quarter range before re-bucketing: queries
// then span at most a 3–4 cell-wide block while refreshes stay rare
// (e.g. every 93 s of simulated time at the paper's 75 m / 0.2 m/s
// operating point).
func newGridIndex(sched *sim.Scheduler, txRange float64) *gridIndex {
	return &gridIndex{
		sched:   sched,
		grid:    geom.NewGrid(txRange),
		slack:   txRange / 4,
		skin:    txRange / skinDivisor,
		bounded: true,
		txGrid:  geom.NewGrid(txRange),
		txByID:  make(map[int]*transmission),
	}
}

func (g *gridIndex) Attach(t *Transceiver) {
	now := g.sched.Now()
	id := len(g.nodes)
	g.nodes = append(g.nodes, t)
	g.lists = append(g.lists, candList{})
	g.attachGen++
	for len(g.seen)*64 < len(g.nodes) {
		g.seen = append(g.seen, 0)
	}
	g.grid.Insert(id, t.pos.Position(now))
	spd, ok := mobility.MaxSpeedOf(t.pos)
	if !ok {
		g.bounded = false
	} else if spd > g.maxSpd {
		g.maxSpd = spd
	}
	if !g.refreshed {
		g.refreshed = true
		g.lastRefresh = now
	}
}

// maybeRefresh re-buckets every node when the worst-case drift since
// the last refresh would exceed the query slack. Models without a speed
// bound force a refresh at every new timestamp (positions cannot change
// within one).
func (g *gridIndex) maybeRefresh(now sim.Time) {
	if now <= g.lastRefresh {
		return
	}
	if g.bounded && g.maxSpd*(now-g.lastRefresh).Seconds() <= g.slack {
		return
	}
	for id, t := range g.nodes {
		g.grid.Move(id, t.pos.Position(now))
	}
	g.lastRefresh = now
}

func (g *gridIndex) ForEachCandidate(now sim.Time, center geom.Point, radius float64, fn func(*Transceiver)) {
	g.maybeRefresh(now)
	g.scratch = g.grid.AppendCandidatesInRange(center, radius+g.slack, g.scratch[:0])
	// Visit in attach order (= ascending id), which keeps reception
	// scheduling bit-identical to the brute-force scan: mark candidates
	// in the bitset, then walk its words lowest-id first.
	wlo, whi := len(g.seen), -1
	for _, id := range g.scratch {
		w := id >> 6
		g.seen[w] |= 1 << (uint(id) & 63)
		if w < wlo {
			wlo = w
		}
		if w > whi {
			whi = w
		}
	}
	for w := wlo; w <= whi; w++ {
		word := g.seen[w]
		if word == 0 {
			continue
		}
		g.seen[w] = 0
		base := w << 6
		for word != 0 {
			fn(g.nodes[base+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
}

// TxCandidates returns from's cached candidate list, rebuilding it
// first when it may no longer be a superset of the nodes within radius:
// a node attached since the build, a query radius beyond the built one,
// a clock behind the build time, or enough elapsed time for the
// fastest node to have drifted more than one skin. Without a speed
// bound on every node no drift limit holds, so the list is rebuilt from
// the grid walk on every call.
func (g *gridIndex) TxCandidates(now sim.Time, from *Transceiver, center geom.Point, radius float64) []int32 {
	l := &g.lists[from.idx]
	if !g.bounded || l.gen != g.attachGen || radius > l.radius || now < l.builtAt ||
		g.maxSpd*(now-l.builtAt).Seconds() > g.skin {
		g.buildList(l, now, from, center, radius)
	}
	return l.ids
}

// buildList refills l with every node other than from within
// radius+2·skin of center at now, in attach order. Between builds each
// endpoint drifts at most one skin, so the distance between them
// changes by at most 2·skin: any node within radius of the transmitter
// at a later valid query was within the keep radius here.
func (g *gridIndex) buildList(l *candList, now sim.Time, from *Transceiver, center geom.Point, radius float64) {
	keep := radius + 2*g.skin + listMargin
	k2 := keep * keep
	ids := l.ids[:0]
	g.ForEachCandidate(now, center, keep, func(t *Transceiver) {
		if t != from && t.pos.Position(now).Dist2(center) <= k2 {
			ids = append(ids, t.idx)
		}
	})
	l.ids, l.builtAt, l.radius, l.gen = ids, now, radius, g.attachGen
}

// AddTx records a frame going on the air. It runs in StartTx — solo
// context under every scheduler — so it may switch the origin grid on:
// when the count first exceeds txScanThreshold, the frames already on
// the air are inserted and the grid then tracks every new one.
// ForEachTxInRange runs inside parallel windows and only ever reads.
func (g *gridIndex) AddTx(tx *transmission) {
	tx.slot = len(g.active)
	g.active = append(g.active, tx)
	switch {
	case g.txGridOn:
		g.insertTxGrid(tx)
	case len(g.active) > txScanThreshold:
		g.txGridOn = true
		for _, a := range g.active {
			g.insertTxGrid(a)
		}
	}
}

func (g *gridIndex) insertTxGrid(tx *transmission) {
	id := g.nextTx
	g.nextTx++
	tx.indexID = id
	g.txByID[id] = tx
	g.txGrid.Insert(id, tx.origin)
}

func (g *gridIndex) removeTxGrid(tx *transmission) {
	delete(g.txByID, tx.indexID)
	g.txGrid.Remove(tx.indexID)
}

// RemoveTx retires a frame (solo context: the finish processing). The
// origin grid switches off once fewer than txScanThreshold/2 frames
// remain; the gap to the switch-on count keeps a load hovering around
// the threshold from rebuilding the grid on every frame.
func (g *gridIndex) RemoveTx(tx *transmission) {
	if tx.slot >= len(g.active) || g.active[tx.slot] != tx {
		return
	}
	if g.txGridOn {
		g.removeTxGrid(tx)
	}
	// The recorded slot makes removal O(1) even with many concurrent
	// transmissions on the air.
	last := len(g.active) - 1
	moved := g.active[last]
	g.active[tx.slot] = moved
	moved.slot = tx.slot
	g.active[last] = nil
	g.active = g.active[:last]
	if g.txGridOn && len(g.active) < txScanThreshold/2 {
		for _, a := range g.active {
			g.removeTxGrid(a)
		}
		g.txGridOn = false
	}
}

func (g *gridIndex) HasTx() bool { return len(g.active) > 0 }

func (g *gridIndex) ForEachTxInRange(now sim.Time, center geom.Point, radius float64, fn func(*transmission)) {
	if !g.txGridOn {
		r2 := radius * radius
		for _, tx := range g.active {
			if tx.end <= now {
				continue
			}
			if center.Dist2(tx.origin) <= r2 {
				fn(tx)
			}
		}
		return
	}
	g.txGrid.ForEachInRange(center, radius, func(id int, _ geom.Point) {
		tx := g.txByID[id]
		if tx.end <= now {
			return
		}
		fn(tx)
	})
}
