package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// --- spans ---

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_us"`
	End    float64           `json:"end_us"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced code paths pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (l *spanLog) begin(parent int, name string, attrs ...string) int {
	if l == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Start: l.since(time.Now())}
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := l.since(time.Now())
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// record adds an already-timed span.
func (l *spanLog) record(parent int, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: l.since(start), End: l.since(end)})
}

func (l *spanLog) since(t time.Time) float64 {
	return float64(t.Sub(l.t0).Nanoseconds()) / 1e3
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// --- process counters ---

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters samples the Go runtime's GC CPU and allocation counts.
type runtimeCounters struct {
	gcCPU  float64 // seconds
	allocs uint64  // heap objects allocated
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocs = s[1].Value.Uint64()
	}
	return c
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPerNode is the live heap grown since base, per node.
func heapPerNode(live, base uint64, nodes int) float64 {
	return float64(live-min(base, live)) / float64(nodes)
}

// --- CPU profile attribution ---

// cpuProfile collects a CPU profile of one traced pass in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling and charges every sample's CPU time to a layer.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes())
}

// layerCPUNames are the per-layer CPU buckets, in report order.
var layerCPUNames = []string{"sim", "radio", "mac", "mobility", "routing", "gossip", "node", "scenario", "netrt", "pkt", "other"}

// layerOfPackage maps a package below anongossip/internal/ onto the
// layer its CPU time is charged to.
var layerOfPackage = map[string]string{
	"sim":           "sim",
	"radio":         "radio",
	"mac":           "mac",
	"mobility":      "mobility",
	"geom":          "mobility",
	"aodv":          "routing",
	"maodv":         "routing",
	"odmrp":         "routing",
	"flood":         "routing",
	"gossip":        "gossip",
	"node":          "node",
	"runtime/simrt": "node",
	"scenario":      "scenario",
	"stack":         "scenario",
	"metrics":       "scenario",
	"stats":         "scenario",
	"trace":         "scenario",
	"runtime/netrt": "netrt",
	"pkt":           "pkt",
	"runtime":       "node",
}

const repoPrefix = "anongossip/internal/"

// layerOfFunc returns the layer of a fully qualified function name, or
// "" for frames outside the repo's internal packages.
func layerOfFunc(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	// The package path ends at the first '.' after the last '/';
	// generic instantiations and receivers may hold slashes of their own.
	if i := strings.IndexAny(rest, "[("); i >= 0 {
		rest = rest[:i]
	}
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	if l, ok := layerOfPackage[rest[:slash+1+dot]]; ok {
		return l
	}
	return "other"
}

// attribute decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to the leaf-most frame that belongs to a repo
// layer, so map, allocation and RNG time lands on the layer that called
// it. Samples with no repo frame go to "other". Values are seconds.
func attribute(gz []byte) (map[string]float64, error) {
	out := make(map[string]float64, len(layerCPUNames))
	for _, l := range layerCPUNames {
		out[l] = 0
	}
	if len(gz) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU value is the sample type with unit "nanoseconds".
	vi := -1
	for i, st := range prof.sampleTypes {
		if prof.str(st.unit) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no nanoseconds sample type")
	}
	funcLayer := make(map[uint64]string, len(prof.funcs))
	for id, nameIdx := range prof.funcs {
		funcLayer[id] = layerOfFunc(prof.str(nameIdx))
	}
	for _, s := range prof.samples {
		if vi >= len(s.values) {
			continue
		}
		layer := "other"
	frames:
		for _, locID := range s.locations { // leaf first
			for _, fid := range prof.locs[locID] { // innermost inlined frame first
				if l := funcLayer[fid]; l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// --- minimal pprof protobuf decoding ---

type valueType struct{ typ, unit int64 }

type sample struct {
	locations []uint64
	values    []int64
}

// profile holds the parts of a pprof Profile message attribution needs.
type profile struct {
	sampleTypes []valueType
	samples     []sample
	locs        map[uint64][]uint64 // location id → function ids, innermost first
	funcs       map[uint64]int64    // function id → name string index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt valueType
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return packed(w, v, d, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return packed(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// packed decodes a repeated varint field in either packed or unpacked
// encoding.
func packed(wire int, v uint64, data []byte, emit func(uint64)) error {
	if wire == 0 {
		emit(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		emit(x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// --- small statistics ---

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
