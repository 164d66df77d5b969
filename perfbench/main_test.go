package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// tinyConfig runs every workload's code on inputs small enough for a
// unit test; its recorded φ and advice lengths were measured like
// fullConfig's.
var tinyConfig = config{
	setupReps:  2,
	shallowN:   300,
	shallowPhi: 3,
	deepW:      8,
	deepPhi:    3,
	deepBits:   13_568,
	bigW:       20,
	bigH:       20,
	bigPhi:     9,
	shardN:     200,
	shardPhi:   2,
	shards:     2,
	svcN:       200,
	svcPhi:     2,
	svcPool:    3,
	svcStream:  300,
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// gives, the rule the benchmark's run-to-run spread is judged by.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{2, 8}, 0.5, 9.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestHighestPercentile checks the rule that a percentile needs at
// least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ceiling float64
		want    float64
	}{
		{10_000, 99.9, 99.9},
		{9_999, 99.9, 99},
		{10_000, 99, 99},
		{1_000, 99, 99},
		{999, 99, 95},
		{200, 99, 95},
		{100, 99, 90},
		{40, 99, 75},
		{20, 99, 50},
		{5, 99, 50},
		{0, 99, 50},
	} {
		if got := highestPercentile(tc.n, tc.ceiling); got != tc.want {
			t.Errorf("highestPercentile(%d, %g) = %g, want %g", tc.n, tc.ceiling, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{99: 99, 95: 95, 90: 90, 50: 50.5, 99.9: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// TestSelfTimes checks the self-time arithmetic: a span's duration minus
// the union of its direct children, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: ms(0), End: ms(10)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(2), End: ms(5)},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: ms(8), End: ms(12)}, // sticks out of op
		{ID: 4, Parent: 2, Name: "d", Start: ms(3), End: ms(4)},  // grandchild of op
		{ID: 5, Parent: -1, Name: "other", Start: ms(20), End: ms(21)},
	}
	want := map[int]time.Duration{0: ms(4), 1: ms(2), 2: ms(2), 3: ms(4), 4: ms(1), 5: ms(1)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%s) = %v, want %v", spans[id].Name, got[id], w)
		}
	}
	byName := selfByName(append(spans, span{ID: 6, Parent: -1, Name: "a", Start: ms(30), End: ms(35)}))
	if byName["a"] != ms(7) {
		t.Errorf("self time of a summed over spans = %v, want 7ms", byName["a"])
	}

	counts := map[string]float64{}
	layerTimes([]span{
		{ID: 0, Parent: -1, Name: "op", Start: ms(0), End: ms(10)},
		{ID: 1, Parent: 0, Name: "stage.advice", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "trie.label", Start: ms(0), End: ms(6)},
		{ID: 3, Parent: 1, Name: "advice.encode", Start: ms(6), End: ms(9)},
	}, counts)
	if counts["trie.label_s"] != 0.006 || counts["advice.encode_s"] != 0.003 || math.Abs(counts["coverage"]-0.9) > 1e-12 {
		t.Errorf("layerTimes = %v", counts)
	}
}

func TestRecorder(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", -1); id != -1 || nilRec.end(id) != 0 {
		t.Fatal("a nil recorder must record nothing")
	}
	r := newRecorder()
	op := r.begin("op", -1)
	r.do("child", op, func() { time.Sleep(time.Millisecond) })
	r.end(op)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != op || s[1].dur() <= 0 || s[0].dur() < s[1].dur() {
		t.Fatalf("spans = %+v", s)
	}
}

// TestRelabeled checks that rewriting an encoding's node ids yields the
// encoding of the relabeled graph.
func TestRelabeled(t *testing.T) {
	g := randomGraph(50, 3)
	perm := rand.New(rand.NewSource(4)).Perm(g.N())
	body, _ := g.MarshalBinary()
	rb, err := relabeled(body, perm)
	if err != nil {
		t.Fatal(err)
	}
	h, err := graph.UnmarshalBinary(rb)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.MarshalBinary()
	want, _ := graph.RelabelNodes(g, perm).MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("relabeled body does not decode to the relabeled graph")
	}
	if _, err := relabeled(body[:len(body)-1], perm); err == nil {
		t.Fatal("a truncated body must be rejected")
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny inputs and
// checks the result line.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				b := &bench{cfg: tinyConfig, workload: w, seed: 5, seconds: 200 * time.Millisecond,
					outdir: t.TempDir(), out: &out}
				if traced {
					b.rec = newRecorder()
				}
				rep, err := b.run()
				if err != nil {
					t.Fatal(err)
				}
				if err := b.print(rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v", res)
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, present %v", d.name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
				if traced && w != "advised-mix" {
					if res.Metrics["trace.coverage"].Value <= 0 || res.Metrics["advice.bits"].Value <= 0 {
						t.Errorf("traced in-process run lacks layer metrics: %v", res.Metrics)
					}
				}
				if traced && w == "sharded-random" && res.Metrics["shard.sends_data"].Value <= 0 {
					t.Errorf("sharded traced run counted no data sends")
				}
				if traced && w == "advised-mix" && res.Metrics["canon.hash_s"].Value <= 0 {
					t.Errorf("advised-mix traced run lacks the replayed layers")
				}
			})
		}
	}
}

// TestMetricListsMatch keeps the metric lists and workloads in step
// with BENCHMARK.json.
func TestMetricListsMatch(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i])
		}
	}
}
