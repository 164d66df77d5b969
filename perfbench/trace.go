package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are offsets from the recorder's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs pay one nil check per call
// site.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// do records fn as a span named name under parent.
func (r *recorder) do(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent)
	fn()
	return r.end(id)
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for every span id, the span's duration minus the
// part of its interval that its direct children cover. Children may
// overlap one another (parallel work) or stick out of the parent; only
// the union of their intervals clipped to the parent counts.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeTrace writes the spans and the per-name self times as JSON.
func writeTrace(path string, spans []span, self map[string]time.Duration) error {
	selfS := make(map[string]float64, len(self))
	for name, d := range self {
		selfS[name] = d.Seconds()
	}
	data, err := json.MarshalIndent(struct {
		Spans []span             `json:"spans"`
		SelfS map[string]float64 `json:"self_s"`
	}{spans, selfS}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// count returns the number of spans begun so far.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// spansFrom returns the spans begun at or after index first.
func (r *recorder) spansFrom(first int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[first:]...)
}

// layerTimes adds one op's span durations to its per-layer time
// metrics, and the share of the op's wall time that layer spans cover.
// spans[0] is the op.
func layerTimes(spans []span, counts map[string]float64) {
	var layers time.Duration
	for _, s := range spans[1:] {
		if m, ok := spanMetric[s.Name]; ok {
			counts[m] += s.dur().Seconds()
			layers += s.dur()
		}
	}
	counts["coverage"] = layers.Seconds() / spans[0].dur().Seconds()
}

// medianCounts returns, per key, the median over ops.
func medianCounts(ops []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, op := range ops {
		for k := range op {
			out[k] = median(column(ops, k))
		}
	}
	return out
}

// column returns one key's values over ops (0 where an op lacks it).
func column(ops []map[string]float64, key string) []float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = op[key]
	}
	return xs
}

// minCount returns the smallest value of key over ops.
func minCount(ops []map[string]float64, key string) float64 {
	xs := column(ops, key)
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[0]
}
