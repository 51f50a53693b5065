package obs

import "runtime/metrics"

// Host sampling is the one part of the telemetry layer that is NOT
// deterministic: heap occupancy and allocation counts depend on the
// machine, the Go version, and whatever else shares the process. It reads
// no clock; a run's wall time is the harness's JobResult.Elapsed.
// Samples therefore never enter Snapshot or any hashed artifact — the
// report writes them to a separate volatile file.

const (
	metricHeapLive   = "/memory/classes/heap/objects:bytes"
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricAllocCount = "/gc/heap/allocs:objects"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
)

// HostSample is a host-resource delta over a watched interval, plus the
// live heap size at sample time. With parallel workers the process-wide
// allocation deltas include neighbouring runs — treat them as indicative,
// not attributed.
type HostSample struct {
	// HeapLiveBytes is the live heap (surviving objects) at sample time,
	// the closest cheap proxy for peak per-run heap the runtime exposes.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// AllocBytes and Allocs are cumulative allocation deltas since the
	// watch started.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	// GCCycles is completed GC cycles during the interval.
	GCCycles uint64 `json:"gc_cycles"`
}

// HostWatch captures a baseline for delta sampling.
type HostWatch struct {
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
}

func readHost() (heapLive, allocBytes, allocs, gcCycles uint64) {
	samples := [4]metrics.Sample{
		{Name: metricHeapLive},
		{Name: metricAllocBytes},
		{Name: metricAllocCount},
		{Name: metricGCCycles},
	}
	metrics.Read(samples[:])
	vals := [4]uint64{}
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			vals[i] = s.Value.Uint64()
		}
	}
	return vals[0], vals[1], vals[2], vals[3]
}

// StartHostWatch records the cumulative runtime metrics as the baseline
// for a later Sample.
func StartHostWatch() *HostWatch {
	_, ab, ac, gc := readHost()
	return &HostWatch{allocBytes: ab, allocs: ac, gcCycles: gc}
}

// Sample reads the host metrics again and returns the delta since the
// watch started. Nil-safe: a nil watch yields the zero sample.
func (w *HostWatch) Sample() HostSample {
	if w == nil {
		return HostSample{}
	}
	live, ab, ac, gc := readHost()
	return HostSample{
		HeapLiveBytes: live,
		AllocBytes:    ab - w.allocBytes,
		Allocs:        ac - w.allocs,
		GCCycles:      gc - w.gcCycles,
	}
}
