package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

// shardedConfig copies cfg and switches it onto the parallel kernel
// with the given worker/shard counts (zero = defaults).
func shardedConfig(cfg Config, workers, shards int) Config {
	cfg.Scheduler = sim.SchedulerSharded
	cfg.Workers = workers
	cfg.Shards = shards
	return cfg
}

// TestSchedulerSerialShardedBitIdentical is the core determinism
// acceptance test for the sharded kernel: every legacy protocol on the
// golden config must produce a bit-identical Result — every member
// count, latency, byte counter and the logical event total — whether
// the run executes on the serial kernel or the sharded one, at any
// worker count.
func TestSchedulerSerialShardedBitIdentical(t *testing.T) {
	for _, p := range goldenProtocols {
		cfg := goldenConfig()
		cfg.Protocol = p
		cfg.Seed = 1

		serial, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v serial: %v", p, err)
		}
		for _, workers := range []int{1, 2, 4} {
			sharded, err := Run(shardedConfig(cfg, workers, 0))
			if err != nil {
				t.Fatalf("%v workers=%d: %v", p, workers, err)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Fatalf("%v workers=%d diverged from serial:\nserial:  %+v\nsharded: %+v",
					p, workers, serial, sharded)
			}
		}
	}
}

// TestSchedulerShardCountInvariant pins the second half of the
// determinism claim: the result is independent not just of the worker
// count but of the spatial partition itself, because the barrier
// replay reconstructs the serial rank order whatever the shard
// boundaries are.
func TestSchedulerShardCountInvariant(t *testing.T) {
	cfg := goldenConfig()
	cfg.Protocol = ProtocolGossip
	cfg.Seed = 2

	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8, 13} {
		sharded, err := Run(shardedConfig(cfg, 4, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("shards=%d diverged from serial:\nserial:  %+v\nsharded: %+v",
				shards, serial, sharded)
		}
	}
}

// TestShardedMatchesCommittedGolden replays the committed golden
// digests on the sharded kernel: the parallel path must reproduce the
// recorded pre-redesign results exactly, not merely agree with
// whatever the current serial kernel computes.
func TestShardedMatchesCommittedGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (record with -update-golden): %v", err)
	}
	var want map[string]goldenView
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	protocols := goldenProtocols
	seeds := goldenSeeds
	if testing.Short() {
		protocols = []Protocol{ProtocolGossip, ProtocolMAODV}
		seeds = goldenSeeds[:1]
	}
	for _, p := range protocols {
		for _, seed := range seeds {
			cfg := goldenConfig()
			cfg.Protocol = p
			cfg.Seed = seed
			res, err := Run(shardedConfig(cfg, 4, 0))
			if err != nil {
				t.Fatalf("%v seed %d: %v", p, seed, err)
			}
			w, ok := want[key(p, seed)]
			if !ok {
				t.Fatalf("%s missing from golden file", key(p, seed))
			}
			wj, _ := json.Marshal(w)
			gj, _ := json.Marshal(viewOf(res))
			if string(wj) != string(gj) {
				t.Errorf("%s: sharded run diverged from committed golden:\n want %s\n got  %s",
					key(p, seed), wj, gj)
			}
		}
	}
}

// TestLargeScale250SchedulerBitIdentical scales the differential to a
// 250-node run, where parallel windows (rather than solo spans) carry
// a meaningful share of the event population. Short mode trims the
// simulated time, not the node count.
func TestLargeScale250SchedulerBitIdentical(t *testing.T) {
	duration := 40 * time.Second
	if testing.Short() {
		duration = 16 * time.Second
	}
	cfg := ShortenedData(LargeScaleConfig(250), duration)
	cfg.Seed = 19

	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sharded, err := Run(shardedConfig(cfg, workers, 0))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("workers=%d diverged from serial on 250 nodes:\nserial:  %+v\nsharded: %+v",
				workers, serial, sharded)
		}
	}
	if serial.Sent == 0 || serial.Received.Mean == 0 {
		t.Fatalf("degenerate run: sent %d, mean received %v", serial.Sent, serial.Received.Mean)
	}
}

// TestDenseSchedulerBitIdentical runs the differential on the dense
// family — tens of neighbours per node, five concurrent senders,
// constant frame overlap — the workload with the heaviest MAC timer
// churn and hence the most window/solo mode switching.
func TestDenseSchedulerBitIdentical(t *testing.T) {
	duration := 24 * time.Second
	if testing.Short() {
		duration = 12 * time.Second
	}
	cfg := ShortenedData(DenseConfig(250, 30), duration)
	cfg.Seed = 23

	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(shardedConfig(cfg, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("dense serial and sharded runs diverged:\nserial:  %+v\nsharded: %+v",
			serial, sharded)
	}
	if serial.Sent == 0 {
		t.Fatal("degenerate dense run: nothing sent")
	}
}

// TestSchedulerRxModelQueueMatrixBitIdentical crosses the new
// scheduler axis with the existing engine axes: every reception-model
// × event-queue × scheduler combination must agree bit for bit on the
// same run.
func TestSchedulerRxModelQueueMatrixBitIdentical(t *testing.T) {
	cfg := goldenConfig()
	cfg.Protocol = ProtocolGossip
	cfg.Seed = 3

	var ref *Result
	var refName string
	for _, model := range []radio.ReceptionModel{radio.ModelBatch, radio.ModelRef} {
		for _, queue := range []sim.QueueKind{sim.QueueQuad, sim.QueueCal, sim.QueueRef} {
			for _, sched := range []sim.SchedulerKind{sim.SchedulerSerial, sim.SchedulerSharded} {
				name := fmt.Sprintf("%v/%v/%v", model, queue, sched)
				c := cfg
				c.RxModel, c.EventQueue, c.Scheduler = model, queue, sched
				if sched == sim.SchedulerSharded {
					c.Workers = 2
				}
				res, err := Run(c)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ref == nil {
					ref, refName = res, name
					continue
				}
				if !reflect.DeepEqual(stripElisionBreakdown(res), stripElisionBreakdown(ref)) {
					t.Fatalf("%s diverged from %s:\n%s: %+v\n%s: %+v",
						name, refName, name, res, refName, ref)
				}
			}
		}
	}
}

// TestValidateSchedulerAxis pins the config surface of the new axis:
// unknown kinds are rejected with the registered names in the message,
// and trace capture composes with the sharded kernel (per-lane rings
// merged in barrier-replay order lifted the old serial-only
// restriction).
func TestValidateSchedulerAxis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = sim.SchedulerKind(99)
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown scheduler kind accepted")
	}
	for _, name := range []string{"serial", "sharded"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered kind %q", err, name)
		}
	}

	cfg = DefaultConfig()
	cfg.Scheduler = sim.SchedulerSharded
	cfg.TraceCapacity = 64
	if err := cfg.Validate(); err != nil {
		t.Fatalf("sharded + trace capture rejected: %v", err)
	}
	cfg.TraceCapacity = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("plain sharded config rejected: %v", err)
	}
}

// TestValidateQueueAxis mirrors the scheduler-axis test for the event
// queue: unknown kinds are rejected with every registered name in the
// message, and each registered kind validates cleanly.
func TestValidateQueueAxis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EventQueue = sim.QueueKind(99)
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown queue kind accepted")
	}
	for _, name := range []string{"quad", "cal", "ref"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered kind %q", err, name)
		}
	}

	for _, kind := range []sim.QueueKind{sim.QueueQuad, sim.QueueCal, sim.QueueRef} {
		cfg = DefaultConfig()
		cfg.EventQueue = kind
		if err := cfg.Validate(); err != nil {
			t.Fatalf("queue kind %v rejected: %v", kind, err)
		}
	}
}

// runPeak is Run without the heap sample, also returning the largest
// number of frames that were ever on the air at once.
func runPeak(t *testing.T, cfg Config) (*Result, int) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	w, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.coord != nil {
		w.coord.Run(cfg.Duration)
	} else {
		w.sched.Run(cfg.Duration)
	}
	return w.collect(), w.medium.PeakActiveTx()
}

// TestShardedTxGridBitIdentical guards the radio index's solo-context
// rule: the transmission-origin grid switches on and off only in StartTx
// and finish processing, never in the carrier reads that run inside
// parallel windows. The 3000-node point puts more than the grid's
// 32-frame switch-on count on the air, so the sharded run reads the
// grid from two workers while solo events rebuild and drop it; under
// the race detector any mutation from a window fails loudly, and the
// result must match the serial run bit for bit.
func TestShardedTxGridBitIdentical(t *testing.T) {
	cfg := ShortenedData(LargeScaleConfig(3000), 2*time.Second)
	cfg.Seed = 29

	serial, peak := runPeak(t, cfg)
	if peak <= 32 {
		t.Fatalf("peak of %d frames on the air never reaches the transmission grid", peak)
	}
	sharded, _ := runPeak(t, shardedConfig(cfg, 2, 0))
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("serial and sharded runs diverged with the transmission grid on:\nserial:  %+v\nsharded: %+v",
			serial, sharded)
	}
}
