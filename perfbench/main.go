// Command perfbench is the repository's benchmark: it drives the
// library in-process on one of four workloads, checks every output it
// times, and prints each metric by name and unit, ending with one JSON
// line. See README.md for the workloads and the metric definitions.
//
//	perfbench --workload shallow-random --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
)

var workloads = []string{"shallow-random", "deep-grid", "sharded-random", "advised-mix"}

// bench is one run: its parameters, where it prints, and the span
// recorder of a traced run (nil otherwise).
type bench struct {
	cfg      config
	workload string
	seed     int64
	seconds  time.Duration
	outdir   string
	out      io.Writer
	rec      *recorder
}

// report is what a run measured: ops attempted and failed, the
// end-to-end metrics and, for a traced run, the per-layer metrics.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	layer             map[string]float64
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outdir := flag.String("outdir", ".bench_build", "directory for the traced run's span file and the advised-mix store")
	flag.Parse()

	b := &bench{cfg: fullConfig, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), outdir: *outdir, out: os.Stdout}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := b.print(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run prints the header, runs the workload and, for a traced run,
// writes the spans out.
func (b *bench) run() (*report, error) {
	if !slices.Contains(workloads, b.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", b.workload, strings.Join(workloads, ", "))
	}
	b.header()
	var rep *report
	var err error
	if b.workload == "advised-mix" {
		rep, err = b.runAdvised()
	} else {
		rep, err = b.runInproc()
	}
	if err != nil {
		return nil, err
	}
	if b.rec != nil {
		if err := b.writeSpans(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// header prints what the numbers were measured on.
func (b *bench) header() {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Fprintf(b.out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds.Seconds(), b.rec != nil)
	fmt.Fprintf(b.out, "# commit=%s dirty=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		rev, dirty, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// cpuModel returns the processor's model name, when the platform says.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// input prints one input graph's shape.
func (b *bench) input(label string, g *graph.Graph, phi int) {
	fmt.Fprintf(b.out, "# input %s: n=%d m=%d phi=%d\n", label, g.N(), g.M(), phi)
}

func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// paperGauges prints the paper's invariants for one input, computed
// outside the window: rounds = φ (Theorem 3.1), advice bits / (n log₂ n)
// (its O(n log n) bound) and φ / (D log₂(n/D)) (Hendrickx's bound, with
// D the lower end of DiameterBounds). It returns them as per-layer
// metrics.
func (b *bench) paperGauges(label string, g *graph.Graph, phi, bitsLen, rounds int) map[string]float64 {
	n := float64(g.N())
	lo, hi := g.DiameterBounds()
	d := math.Max(1, float64(lo))
	hend := float64(phi) / (d * math.Log2(math.Max(2, n/d)))
	line := fmt.Sprintf("# paper %s: rounds=%d phi=%d rounds==phi=%v phi/(D*log2(n/D))=%.4f D in [%d,%d]", label, rounds, phi, rounds == phi, hend, lo, hi)
	if bitsLen > 0 {
		line += fmt.Sprintf(" advice_bits/(n*log2 n)=%.4f", float64(bitsLen)/(n*math.Log2(n)))
	}
	fmt.Fprintln(b.out, line)
	return map[string]float64{
		"paper.rounds_minus_phi": float64(rounds - phi),
		"paper.phi_over_dlogn":   hend,
	}
}

// failRatio is failed / attempted, floored at 10⁻⁶ — the benchmark's
// resolution — so that a clean run reads a fixed, non-zero value and
// any failure reads as a regression of several orders of magnitude.
func failRatio(failed, attempted int) float64 {
	return math.Max(float64(failed)/float64(max(attempted, 1)), 1e-6)
}

// writeSpans writes the traced run's spans and per-name self times.
func (b *bench) writeSpans() error {
	spans := b.rec.snapshot()
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		fmt.Fprintf(b.out, "# self %-20s %10.4f s\n", k, self[k].Seconds())
	}
	if err := os.MkdirAll(b.outdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.outdir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	fmt.Fprintf(b.out, "# spans: %d written to %s\n", len(spans), path)
	return writeTrace(path, spans, self)
}

// print writes every metric of the run's kind by name and unit, then
// the result line.
func (b *bench) print(rep *report) error {
	defs, vals := endToEnd, rep.metrics
	if b.rec != nil {
		defs, vals = perLayer, rep.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && b.rec == nil {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(b.out, "%-24s %16.6f %s\n", d.name, v, d.unit)
		out[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(b.out, string(line))
	return err
}
