// Package radio models the wireless channel: unit-disc propagation with a
// configurable transmission range (the paper sweeps 45–85 m), physical
// carrier sense, and an overlap-based collision model.
//
// The model captures the loss processes the paper's results depend on:
//
//   - two receptions overlapping in time at a receiver corrupt each other
//     (including the hidden-terminal case, where the two transmitters are
//     out of each other's range);
//   - a half-duplex node cannot receive while transmitting;
//   - a node senses the channel busy while any in-range node transmits.
//
// It deliberately omits SINR/capture effects: any overlap corrupts. This
// is the same granularity as GloMoSim's default no-capture configuration.
//
// Reception bookkeeping is pluggable (see ReceptionModel): the default
// batched model schedules one finish event per transmission and walks a
// per-frame receiver table; the reference model schedules one event per
// receiver. Both produce bit-identical simulations.
package radio

import (
	"errors"
	"fmt"
	"math"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// Params configures the channel.
type Params struct {
	// Range is the transmission (and carrier-sense) radius in metres.
	Range float64
	// Index selects the neighbour lookup strategy (default IndexGrid;
	// see IndexKind). Both strategies produce bit-identical simulations.
	Index IndexKind
	// Model selects the reception bookkeeping implementation (default
	// ModelBatch; see ReceptionModel). Both models produce bit-identical
	// simulations.
	Model ReceptionModel
}

// Stats aggregates channel-level counters for the whole medium.
type Stats struct {
	// Transmissions counts StartTx calls.
	Transmissions uint64
	// Deliveries counts receptions handed up intact.
	Deliveries uint64
	// Collisions counts receptions corrupted by overlap or half-duplex
	// conflicts.
	Collisions uint64
}

// Handler receives the outcome of a reception. frame is the value passed
// to StartTx; ok is false when the reception was corrupted.
type Handler func(frame any, from pkt.NodeID, ok bool)

// CarrierPredictWindow bounds how far ahead CarrierProbe's closure
// bound and CarrierOnset's proven classification remain valid: both
// account for node motion by inflating the carrier-sense radius by
// maxSpeed·CarrierPredictWindow, so a prediction about any instant
// within the window is conservative no matter how the node moves.
// Predictions past the window are unsound and callers must fall back
// to an exact read. 25 ms comfortably covers every MAC countdown (the
// longest is DIFS + CWMax slots ≈ 20.5 ms) while keeping the inflation
// small (25 cm at the experiments' fastest 10 m/s sweep, against a
// 45–85 m radius), so the uncertainty band stays rare.
const CarrierPredictWindow = 25 * time.Millisecond

// CarrierListener receives conservative channel-onset notifications —
// the radio-side half of the MAC's folded contention countdown
// (DESIGN.md §10). The medium invokes it during StartTx processing for
// every listener the new transmission could possibly reach within
// CarrierPredictWindow. proven means the listener is guaranteed to
// sense this carrier at every instant it could query before the window
// expires (the transmitter is at least maxSpeed·window inside the
// sensing radius); onsets from the surrounding uncertainty band arrive
// with proven == false and must invalidate any folded prediction.
// Listeners run inside StartTx — solo context under every scheduler —
// and may only touch their own node's state.
type CarrierListener interface {
	CarrierOnset(end sim.Time, proven bool)
}

// TxDone is the transmitter-side completion hook for StartTxNotify.
// TxDone runs when the transmission's finish processing completes — at
// the tail of the per-frame table walk under ModelBatch, after the
// retire event under ModelRef — which is exactly where a timer the
// transmitter armed for the airtime's end would run: the kernel
// allocates that timer's sequence number immediately after the finish
// events', so nothing can order between them. Folding the timer into
// the hook is therefore schedule-transparent; the MAC uses it to elide
// one event per data/RTS transmission (see mac.Stats.ElidedEvents).
// It is an interface rather than a func so callers can pass a
// long-lived receiver without allocating a closure per transmission.
type TxDone interface {
	TxDone()
}

// transmission is one frame on the air. Records are pooled by the
// medium: a transmission is recycled once its finish processing — the
// table walk under ModelBatch, the RemoveTx event under ModelRef — has
// completed, at which point nothing references it any more.
type transmission struct {
	from   *Transceiver
	frame  any
	start  sim.Time
	end    sim.Time
	origin geom.Point
	// indexID and slot are gridIndex bookkeeping (its txByID key and
	// position in its active slice); unused by the brute-force index.
	indexID int
	slot    int
	// recvs is the batched model's receiver table: one value entry per
	// in-range receiver, in attach order, built at StartTx and walked
	// by the single finish event. Unused by ModelRef, which tracks
	// receptions on the receivers instead. The slice's capacity
	// survives pooling, so steady-state transmissions allocate nothing.
	recvs []recvEntry
	// done is the transmitter's completion hook (StartTxNotify), invoked
	// after finish processing retires the transmission. Nil for plain
	// StartTx.
	done TxDone
	// finish is the batched model's finish event, bound to this record
	// once when the pool first allocates it, so scheduling it allocates
	// nothing.
	finish func()
}

// recvEntry is one receiver-table row: the receiver by attach index
// (indices, not pointers, keep the table a flat pointer-light value
// slice) plus the corruption verdict already known when the
// transmission started. Interference that happens while the frame is in
// the air is detected at finish time from the receiver's counters.
type recvEntry struct {
	rcv       int32
	corrupted bool
}

// reception tracks one frame arriving at one transceiver (ModelRef
// only; ModelBatch keeps value entries in transmission.recvs instead).
type reception struct {
	tx        *transmission
	corrupted bool
}

// Medium is the shared channel all transceivers attach to.
type Medium struct {
	sched  *sim.Scheduler
	params Params
	nodes  []*Transceiver
	byID   map[pkt.NodeID]*Transceiver
	index  NeighborIndex
	stats  Stats

	// txFree pools transmission records (and their receiver tables).
	txFree []*transmission
	// activeTx counts transmissions currently on the air — incremented
	// at StartTx, decremented when the finish processing retires the
	// record. It is the in-flight gauge the metrics sampler reads; like
	// stats it is only touched from solo-context events.
	activeTx int
	// peakTx is activeTx's high-water mark; see PeakActiveTx.
	peakTx int
	// elided counts the per-receiver finish events the batched model
	// folded into per-frame events; see ElidedEvents.
	elided uint64
	// carrierEps is the largest motion-uncertainty inflation among
	// attached carrier listeners (maxSpeed·CarrierPredictWindow); the
	// StartTx walks widen their candidate radius by it so band onsets
	// reach every listener they might concern.
	carrierEps float64
}

// NewMedium creates a channel managed by sched. Unless Params.Index
// says otherwise, neighbour lookups use the spatial grid; a
// non-positive range (only seen in degenerate test setups) falls back
// to the brute-force scan, which needs no cell size.
func NewMedium(sched *sim.Scheduler, params Params) *Medium {
	m := &Medium{sched: sched, params: params, byID: make(map[pkt.NodeID]*Transceiver)}
	if params.Index == IndexBrute || params.Range <= 0 {
		m.index = newBruteIndex()
	} else {
		m.index = newGridIndex(sched, params.Range)
	}
	return m
}

// Stats returns a copy of the channel counters.
func (m *Medium) Stats() Stats { return m.stats }

// ActiveTx returns the number of transmissions currently on the air.
func (m *Medium) ActiveTx() int { return m.activeTx }

// PeakActiveTx returns the largest number of transmissions that were
// ever on the air at once.
func (m *Medium) PeakActiveTx() int { return m.peakTx }

// Range returns the configured transmission radius in metres.
func (m *Medium) Range() float64 { return m.params.Range }

// Model returns the reception model backing the medium.
func (m *Medium) Model() ReceptionModel { return m.params.Model }

// ElidedEvents returns the number of per-receiver reception events the
// batched model folded into per-frame finish events. Adding it to the
// scheduler's processed count yields the logical event total — the
// number of events the reference model executes for the same run —
// which keeps event-count metrics comparable (and golden digests
// stable) across reception models. It is zero under ModelRef.
func (m *Medium) ElidedEvents() uint64 { return m.elided }

// ErrDuplicateNode reports an Attach with a node ID that is already
// attached to the medium. Node IDs key handler dispatch and per-node
// statistics, so a duplicate always indicates a misconfigured scenario.
var ErrDuplicateNode = errors.New("radio: node already attached")

// Attach registers a transceiver for a node. The handler is invoked at
// the end of each reception. Handlers run inside the simulation event
// loop. Attaching the same node ID twice fails with ErrDuplicateNode.
func (m *Medium) Attach(id pkt.NodeID, pos mobility.Model, h Handler) (*Transceiver, error) {
	return m.AttachOn(m.sched, id, pos, h)
}

// AttachOn registers a transceiver whose clock is sched — under the
// sharded scheduler, the node's shard lane, so carrier-sense queries
// made inside a parallel window read the node's own clock rather than
// the coordinator's. With sched equal to the medium's scheduler it is
// identical to Attach.
func (m *Medium) AttachOn(sched *sim.Scheduler, id pkt.NodeID, pos mobility.Model, h Handler) (*Transceiver, error) {
	if _, dup := m.byID[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	t := &Transceiver{
		id: id, medium: m, sched: sched, pos: pos, handler: h,
		idx: int32(len(m.nodes)),
		// lastInterference must predate every possible transmission
		// start; simulation time is never negative.
		lastInterference: -1,
	}
	if spd, ok := mobility.MaxSpeedOf(pos); ok {
		t.maxSpeed, t.speedOK = spd, true
		t.predEps = spd * CarrierPredictWindow.Seconds()
	}
	m.nodes = append(m.nodes, t)
	m.byID[id] = t
	m.index.Attach(t)
	return t, nil
}

// acquireTx pops a pooled transmission record (or allocates the pool's
// first occupants).
func (m *Medium) acquireTx() *transmission {
	n := len(m.txFree)
	if n == 0 {
		tx := &transmission{}
		tx.finish = func() { m.finishTx(tx) }
		return tx
	}
	tx := m.txFree[n-1]
	m.txFree = m.txFree[:n-1]
	return tx
}

// releaseTx recycles a finished transmission, dropping its references
// so pooled records pin neither frames nor transceivers.
func (m *Medium) releaseTx(tx *transmission) {
	tx.from, tx.frame, tx.done = nil, nil, nil
	tx.recvs = tx.recvs[:0]
	m.txFree = append(m.txFree, tx)
}

// ErrAlreadyTransmitting reports a StartTx while a previous transmission
// from the same transceiver is still on the air. The MAC layer serialises
// transmissions, so hitting this indicates a MAC bug.
var ErrAlreadyTransmitting = errors.New("radio: transceiver already transmitting")

// Transceiver is one node's attachment to the medium.
type Transceiver struct {
	id     pkt.NodeID
	medium *Medium
	// sched is the node's clock: the medium's scheduler under the
	// serial kernel, the node's shard lane under the sharded one (the
	// two agree whenever cross-node state is touched).
	sched   *sim.Scheduler
	pos     mobility.Model
	handler Handler
	// idx is the attach-order position in medium.nodes; receiver tables
	// reference transceivers by this index.
	idx int32

	// carrier, when non-nil, receives conservative channel-onset
	// notifications (see CarrierListener). maxSpeed/speedOK cache the
	// mobility model's Speeder bound at attach time; predEps is the
	// motion-uncertainty inflation maxSpeed·CarrierPredictWindow that
	// the onset classification and CarrierProbe's closure bound use.
	carrier  CarrierListener
	maxSpeed float64
	speedOK  bool
	predEps  float64

	// Probe scratch: CarrierProbe's index walk accumulates into these
	// fields through one reusable closure instead of per-call captures
	// — the probe runs on every folded backoff arm, and boxing the
	// accumulators was a measurable share of run-phase allocations at
	// 100k nodes. Only this node's own probes touch them (cross-node
	// index walks already run serialized under the sharded kernel).
	probeBusy, probeReach sim.Time
	probePos              geom.Point
	probeR2               float64
	probeFn               func(*transmission)

	txEnd sim.Time // end of own in-flight transmission, 0 if idle

	// receptions is the ModelRef live-reception list.
	receptions []*reception

	// ModelBatch collision state. rxInFlight counts receptions whose
	// finish walk has not yet processed them. lastInterference is the
	// time of the most recent interference event at this node — another
	// reception starting, or this node starting to transmit, while
	// receptions were in flight. A reception spanning [start, end] is
	// corrupted iff it was corrupted at start or lastInterference ≥
	// start by the time the finish walk reaches it; both updates are
	// O(1), replacing ModelRef's scans over the live reception list.
	rxInFlight       int32
	lastInterference sim.Time

	// Per-node counters.
	sent      uint64
	delivered uint64
	collided  uint64
}

// ID returns the node ID this transceiver belongs to.
func (t *Transceiver) ID() pkt.NodeID { return t.id }

// Position returns the node's position at the current simulation time.
func (t *Transceiver) Position() geom.Point {
	return t.pos.Position(t.sched.Now())
}

// Transmitting reports whether the transceiver has a frame on the air.
func (t *Transceiver) Transmitting() bool {
	return t.txEnd > t.sched.Now()
}

// Counters returns (frames sent, receptions delivered, receptions
// corrupted) for this transceiver.
func (t *Transceiver) Counters() (sent, delivered, collided uint64) {
	return t.sent, t.delivered, t.collided
}

// CarrierBusyUntil returns the latest end time of any in-range
// transmission (including the node's own). A result <= now means the
// channel is idle at the sensing node. The index enumerates only
// transmissions whose origin is within range, so the cost is O(local
// activity), not O(all active transmissions).
func (t *Transceiver) CarrierBusyUntil() sim.Time {
	m := t.medium
	now := t.sched.Now()
	var until sim.Time
	if t.txEnd > now {
		until = t.txEnd
	}
	if !m.index.HasTx() {
		return until
	}
	p := t.pos.Position(now)
	m.index.ForEachTxInRange(now, p, m.params.Range, func(tx *transmission) {
		if tx.from != t && tx.end > until {
			until = tx.end
		}
	})
	return until
}

// CarrierPredictable reports whether this node's mobility model
// provides the conservative speed bound carrier prediction requires.
// Without one, CarrierProbe's closure bound and onset classification
// would be unsound, so callers must stick to exact reads.
func (t *Transceiver) CarrierPredictable() bool { return t.speedOK }

// SetCarrierListener registers (or clears) the channel-onset hook the
// folded contention countdown listens on. Listeners on nodes without a
// speed bound receive nothing (see CarrierPredictable).
func (t *Transceiver) SetCarrierListener(l CarrierListener) {
	if !t.speedOK {
		return
	}
	t.carrier = l
	if l != nil && t.predEps > t.medium.carrierEps {
		t.medium.carrierEps = t.predEps
	}
}

// CarrierProbe returns the exact CarrierBusyUntil value together with
// a conservative closure bound: reach is the latest end time of any
// transmission already on the air that could contribute carrier at
// this node at any instant within CarrierPredictWindow, accounting for
// the node's own motion (transmission origins are fixed). For any
// target with reach <= target <= now + CarrierPredictWindow, the
// channel is guaranteed idle at target unless a transmission starts
// after now — and every such start the node could sense is reported
// through its CarrierListener. Both values come from one index walk,
// so a probe costs the same as CarrierBusyUntil.
func (t *Transceiver) CarrierProbe() (busy, reach sim.Time) {
	m := t.medium
	now := t.sched.Now()
	if t.txEnd > now {
		busy = t.txEnd
	}
	reach = busy
	if !t.speedOK {
		reach = sim.Time(math.MaxInt64)
	}
	if !m.index.HasTx() {
		return busy, reach
	}
	p := t.pos.Position(now)
	r := m.params.Range
	if !t.speedOK {
		// No speed bound: the closure half is unsound (reach is already
		// saturated); fall back to the exact-read walk.
		r2 := r * r
		m.index.ForEachTxInRange(now, p, r, func(tx *transmission) {
			if tx.from != t && tx.end > busy && p.Dist2(tx.origin) <= r2 {
				busy = tx.end
			}
		})
		return busy, reach
	}
	t.probeBusy, t.probeReach = busy, reach
	t.probePos, t.probeR2 = p, r*r
	if t.probeFn == nil {
		t.probeFn = func(tx *transmission) {
			if tx.from == t {
				return
			}
			if tx.end > t.probeReach {
				t.probeReach = tx.end
			}
			if tx.end > t.probeBusy && t.probePos.Dist2(tx.origin) <= t.probeR2 {
				t.probeBusy = tx.end
			}
		}
	}
	m.index.ForEachTxInRange(now, p, r+t.predEps, t.probeFn)
	return t.probeBusy, t.probeReach
}

// notifyCarrier classifies one onset for an in-band listener: proven
// when the listener sits at least its motion inflation inside the
// sensing radius, band otherwise. d2 is the exact squared distance
// from the transmission origin to the listener's current position.
func notifyCarrier(rcv *Transceiver, d2, r float64, end sim.Time) {
	in := r - rcv.predEps
	rcv.carrier.CarrierOnset(end, in > 0 && d2 <= in*in)
}

// StartTx puts frame on the air for airtime. Receivers are the nodes
// within range at the start of the transmission; each receives the frame
// (or a corruption notice) when the airtime elapses.
func (t *Transceiver) StartTx(frame any, airtime sim.Time) error {
	return t.StartTxNotify(frame, airtime, nil)
}

// StartTxNotify is StartTx with a transmitter-side completion hook:
// done.TxDone() (when done is non-nil) runs after the transmission's
// finish processing, in the exact schedule position of an airtime-end
// timer armed by the caller right after StartTx — see the TxDone doc.
func (t *Transceiver) StartTxNotify(frame any, airtime sim.Time, done TxDone) error {
	m := t.medium
	now := m.sched.Now()
	if t.txEnd > now {
		return fmt.Errorf("%w: node %s", ErrAlreadyTransmitting, t.id)
	}
	if airtime <= 0 {
		return fmt.Errorf("radio: non-positive airtime %v", airtime)
	}

	tx := m.acquireTx()
	tx.from, tx.frame, tx.done = t, frame, done
	tx.start, tx.end = now, now+airtime
	tx.origin = t.pos.Position(now)
	m.index.AddTx(tx)
	m.stats.Transmissions++
	m.activeTx++
	if m.activeTx > m.peakTx {
		m.peakTx = m.activeTx
	}
	t.sent++
	t.txEnd = tx.end

	if t.carrier != nil {
		// The node's own transmission raises its own carrier (an ACK or
		// CTS sent while a head frame's countdown is pending); distance
		// zero makes it proven by construction.
		t.carrier.CarrierOnset(tx.end, true)
	}
	if m.params.Model == ModelRef {
		t.startTxRef(tx, now)
	} else {
		t.startTxBatch(tx, now)
	}
	return nil
}

// startTxBatch builds the per-frame receiver table and schedules the
// single finish event that will walk it. The index yields a
// position-superset in attach order — under the grid, the
// transmitter's cached candidate list — and admitBatch applies the
// exact unit-disc predicate against fresh positions.
func (t *Transceiver) startTxBatch(tx *transmission, now sim.Time) {
	m := t.medium
	// Transmitting corrupts anything this node was in the middle of
	// receiving (half-duplex): record the interference instead of
	// touching each in-flight reception.
	if t.rxInFlight > 0 {
		t.lastInterference = now
	}
	for _, id := range m.index.TxCandidates(now, t, tx.origin, m.params.Range+m.carrierEps) {
		if rcv := m.nodes[id]; rcv != t {
			m.admitBatch(tx, rcv, now)
		}
	}
	m.sched.At(tx.end, tx.finish)
}

// inRange applies the exact unit-disc predicate to one candidate
// receiver of tx and raises its carrier-listener onset: proven or band
// for a receiver in range, band only for one just outside it but inside
// its listener's uncertainty band. It reports whether rcv is in range.
func (m *Medium) inRange(tx *transmission, rcv *Transceiver, now sim.Time) bool {
	r := m.params.Range
	d2 := rcv.pos.Position(now).Dist2(tx.origin)
	if d2 > r*r {
		if rcv.carrier != nil {
			if out := r + rcv.predEps; d2 <= out*out {
				rcv.carrier.CarrierOnset(tx.end, false)
			}
		}
		return false
	}
	if rcv.carrier != nil {
		notifyCarrier(rcv, d2, r, tx.end)
	}
	return true
}

// admitBatch adds one candidate to tx's receiver table if it is in
// range.
func (m *Medium) admitBatch(tx *transmission, rcv *Transceiver, now sim.Time) {
	if !m.inRange(tx, rcv, now) {
		return
	}
	// A node mid-transmission cannot hear the frame, and any receptions
	// already in flight at the receiver collide with the new one — the
	// former decides this entry now, the latter is recorded as
	// interference for the in-flight entries' walks.
	corrupted := rcv.txEnd > now || rcv.rxInFlight > 0
	if rcv.rxInFlight > 0 {
		rcv.lastInterference = now
	}
	rcv.rxInFlight++
	tx.recvs = append(tx.recvs, recvEntry{rcv: rcv.idx, corrupted: corrupted})
}

// finishTx is the batched model's single finish event: it walks the
// receiver table in attach order — the exact order the reference model
// fires its per-receiver events in, since those are scheduled
// back-to-back at StartTx and the kernel runs same-instant events in
// insertion order — finalises each entry's outcome, and retires the
// transmission. Handlers may call StartTx re-entrantly; entries not yet
// walked still count as in flight, so a frame transmitted mid-walk
// collides with them exactly as it would under ModelRef.
func (m *Medium) finishTx(tx *transmission) {
	now := m.sched.Now()
	m.elided += uint64(len(tx.recvs))
	for i := range tx.recvs {
		e := tx.recvs[i]
		rcv := m.nodes[e.rcv]
		rcv.rxInFlight--
		// A node still transmitting when the frame ends cannot have
		// heard it; interference at or after the frame's start corrupts
		// (at-start equality arises only when the interferer acted
		// after this frame began within the same instant).
		corrupted := e.corrupted || rcv.lastInterference >= tx.start || rcv.txEnd > now
		if corrupted {
			rcv.collided++
			m.stats.Collisions++
		} else {
			rcv.delivered++
			m.stats.Deliveries++
		}
		if rcv.handler != nil {
			rcv.handler(tx.frame, tx.from.id, !corrupted)
		}
	}
	done := tx.done
	m.index.RemoveTx(tx)
	m.releaseTx(tx)
	m.activeTx--
	if done != nil {
		done.TxDone()
	}
}

// startTxRef is the reference reception path: one reception record and
// one scheduled finish event per in-range receiver, plus a trailing
// event that retires the transmission.
func (t *Transceiver) startTxRef(tx *transmission, now sim.Time) {
	m := t.medium
	// Transmitting corrupts anything this node was in the middle of
	// receiving (half-duplex).
	for _, rec := range t.receptions {
		if !rec.corrupted {
			rec.corrupted = true
		}
	}

	// The index yields a position-superset in attach order; admitRef
	// applies the exact unit-disc predicate against fresh positions.
	for _, id := range m.index.TxCandidates(now, t, tx.origin, m.params.Range+m.carrierEps) {
		if rcv := m.nodes[id]; rcv != t {
			m.admitRef(tx, rcv, now)
		}
	}

	m.sched.At(tx.end, func() {
		done := tx.done
		m.index.RemoveTx(tx)
		m.releaseTx(tx)
		m.activeTx--
		if done != nil {
			done.TxDone()
		}
	})
}

// admitRef gives one in-range candidate of tx a reception record and
// its own finish event.
func (m *Medium) admitRef(tx *transmission, rcv *Transceiver, now sim.Time) {
	if !m.inRange(tx, rcv, now) {
		return
	}
	rec := &reception{tx: tx}
	// A node mid-transmission cannot hear the frame, and any receptions
	// already in progress at the receiver collide with the new one.
	if rcv.txEnd > now {
		rec.corrupted = true
	}
	for _, other := range rcv.receptions {
		other.corrupted = true
		rec.corrupted = true
	}
	rcv.receptions = append(rcv.receptions, rec)
	m.sched.At(tx.end, func() { rcv.finishReception(rec) })
}

func (t *Transceiver) finishReception(rec *reception) {
	// Drop rec from the active set.
	for i, r := range t.receptions {
		if r == rec {
			last := len(t.receptions) - 1
			t.receptions[i] = t.receptions[last]
			t.receptions[last] = nil
			t.receptions = t.receptions[:last]
			break
		}
	}
	// A node still transmitting when the frame ends cannot have heard it.
	if t.txEnd > t.medium.sched.Now() {
		rec.corrupted = true
	}
	if rec.corrupted {
		t.collided++
		t.medium.stats.Collisions++
	} else {
		t.delivered++
		t.medium.stats.Deliveries++
	}
	if t.handler != nil {
		t.handler(rec.tx.frame, rec.tx.from.id, !rec.corrupted)
	}
}

// NeighborsOf returns the IDs of all nodes currently within range of node
// id, in attach order. It is used by diagnostics and topology metrics,
// not by protocols (which must discover neighbours through the channel,
// as in the paper).
func (m *Medium) NeighborsOf(id pkt.NodeID) []pkt.NodeID {
	self, ok := m.byID[id]
	if !ok {
		return nil
	}
	now := m.sched.Now()
	p := self.pos.Position(now)
	r2 := m.params.Range * m.params.Range
	var out []pkt.NodeID
	m.index.ForEachCandidate(now, p, m.params.Range, func(t *Transceiver) {
		if t == self {
			return
		}
		if t.pos.Position(now).Dist2(p) <= r2 {
			out = append(out, t.id)
		}
	})
	return out
}

// MeanDegree returns the average neighbour count over all attached nodes
// at the current time. The Fig. 6 experiment uses it to scale range with
// node count. Positions are snapshotted once per call, so the cost is
// N·degree distance checks through the grid (N² with the brute index)
// on top of N position evaluations.
func (m *Medium) MeanDegree() float64 {
	if len(m.nodes) == 0 {
		return 0
	}
	now := m.sched.Now()
	r2 := m.params.Range * m.params.Range
	pts := make([]geom.Point, len(m.nodes))
	for i, t := range m.nodes {
		pts[i] = t.pos.Position(now)
	}
	var links int
	for _, self := range m.nodes {
		p := pts[self.idx]
		m.index.ForEachCandidate(now, p, m.params.Range, func(t *Transceiver) {
			if t != self && pts[t.idx].Dist2(p) <= r2 {
				links++
			}
		})
	}
	return float64(links) / float64(len(m.nodes))
}
