package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler polls the live heap every few milliseconds and keeps the
// peak. runtime/metrics reads do not stop the world, so sampling does
// not perturb the ops it watches.
type heapSampler struct {
	peak uint64 // written by the polling goroutine, read after done
	stop chan struct{}
	done chan struct{}
}

// startHeapSampler starts the polling goroutine; stop it with halt.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// halt stops the polling goroutine, waits for it and returns the peak
// in MiB.
func (h *heapSampler) halt() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// gcCounters is a snapshot of the runtime's cumulative GC and
// allocation counters; the difference of two brackets one op.
type gcCounters struct {
	cycles     uint64
	gcCPU      float64 // seconds
	pause      time.Duration
	allocBytes uint64
}

var gcSampleNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readGC() gcCounters {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{
		cycles:     s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		pause:      time.Duration(ms.PauseTotalNs),
	}
}

func (a gcCounters) sub(b gcCounters) gcCounters {
	return gcCounters{
		cycles:     a.cycles - b.cycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		pause:      a.pause - b.pause,
		allocBytes: a.allocBytes - b.allocBytes,
	}
}
