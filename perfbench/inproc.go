package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	election "repro"
	"repro/internal/advice"
	"repro/internal/algorithms"
	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/view"
)

// inprocInputs are the inputs of the three workloads that drive the
// library directly: the election graph, its φ, and for deep-grid the
// large grid whose φ is timed.
type inprocInputs struct {
	g      *graph.Graph
	phi    int
	big    *graph.Graph // deep-grid only
	shards int          // sharded-random only
}

// inprocPlan is what the seed fixes before set-up: the graph seed of
// the random workloads, the permutation seed of deep-grid.
type inprocPlan struct{ graphSeed, permSeed int64 }

func planInproc(cfg config, workload string, seed int64) (inprocPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := inprocPlan{permSeed: rng.Int63()}
	var gs []int64
	var err error
	switch workload {
	case "shallow-random":
		gs, err = phiSeeds(rng, cfg.shallowN, cfg.shallowPhi, 1)
	case "sharded-random":
		gs, err = phiSeeds(rng, cfg.shardN, cfg.shardPhi, 1)
	case "deep-grid":
		return p, nil
	default:
		return p, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return p, err
	}
	p.graphSeed = gs[0]
	return p, nil
}

func setupInproc(cfg config, workload string, p inprocPlan) *inprocInputs {
	switch workload {
	case "shallow-random":
		return &inprocInputs{g: randomGraph(cfg.shallowN, p.graphSeed), phi: cfg.shallowPhi}
	case "sharded-random":
		return &inprocInputs{g: randomGraph(cfg.shardN, p.graphSeed), phi: cfg.shardPhi, shards: cfg.shards}
	}
	rng := rand.New(rand.NewSource(p.permSeed))
	return &inprocInputs{
		g:   permuted(rng, graph.GridStream(cfg.deepW, cfg.deepW+1)),
		phi: cfg.deepPhi,
		big: permuted(rng, graph.GridStream(cfg.bigW, cfg.bigH)),
	}
}

// opSample is one untraced op: the whole op, its stages, and the hot
// decode that follows it.
type opSample struct {
	total, advice, elect, phi, hot time.Duration
	rounds                         int
	gc                             gcCounters
	enc                            bits.String
	res                            *election.Result
}

// untracedOp is one op on the production path: a fresh System, the
// oracle on its empty table, the election over the table the oracle
// filled (RunMinTime's policy) and, on deep-grid, φ of the large grid.
// The decode of the op's own advice, the in-process analogue of a hot
// request, is timed after the op.
func untracedOp(cfg config, in *inprocInputs) (opSample, error) {
	var s opSample
	gc0 := readGC()
	t0 := time.Now()
	sys := election.NewSystem()
	a, enc, err := sys.ComputeAdvice(in.g)
	if err != nil {
		return s, fmt.Errorf("ComputeAdvice: %w", err)
	}
	s.advice = time.Since(t0)
	t1 := time.Now()
	res, err := sys.RunElect(in.g, enc, election.Options{Shards: in.shards, ShardSeed: shardSeed})
	if err != nil {
		return s, fmt.Errorf("RunElect: %w", err)
	}
	s.elect = time.Since(t1)
	if in.big != nil {
		t2 := time.Now()
		phi, ok := sys.ElectionIndex(in.big)
		s.phi = time.Since(t2)
		if !ok || phi != cfg.bigPhi {
			return s, fmt.Errorf("φ of the %dx%d grid = %d (feasible %v), recorded %d", cfg.bigW, cfg.bigH, phi, ok, cfg.bigPhi)
		}
	}
	s.total = time.Since(t0)
	s.gc = readGC().sub(gc0)

	runtime.GC()
	t3 := time.Now()
	dec, err := advice.Decode(enc)
	s.hot = time.Since(t3)
	if err != nil {
		return s, fmt.Errorf("decode: %w", err)
	}
	if a.Phi != in.phi || dec.Phi != in.phi || res.Time != in.phi {
		return s, fmt.Errorf("Theorem 3.1: oracle φ %d, decoded φ %d, election time %d, want φ = %d", a.Phi, dec.Phi, res.Time, in.phi)
	}
	if in.big != nil && enc.Len() != cfg.deepBits {
		return s, fmt.Errorf("deep-grid advice is %d bits, recorded %d", enc.Len(), cfg.deepBits)
	}
	s.enc, s.res, s.rounds = enc, res, res.Time
	return s, nil
}

// tracedOp is one op rebuilt from layer calls with spans: the oracle
// (tracedOracle), the election with a timed decider factory (and, on
// sharded-random, counting transport and journal wrappers), Verify, and
// a standalone frontier-refinement loop for φ.
func tracedOp(tr *recorder, cfg config, in *inprocInputs) (map[string]float64, bits.String, *sim.Result, error) {
	counts := map[string]float64{}
	op := tr.begin("op", -1)
	defer tr.end(op)

	st := tr.begin("stage.advice", op)
	a, enc, tab, err := tracedOracle(tr, st, in.g, counts)
	counts["stage.advice"] = tr.end(st).Seconds()
	if err != nil {
		return nil, enc, nil, err
	}
	n := float64(in.g.N())
	counts["advice.bits"] = float64(enc.Len())
	counts["advice.bits_per_nlogn"] = float64(enc.Len()) / (n * math.Log2(n))

	st = tr.begin("stage.elect", op)
	res, err := tracedElect(tr, st, in, tab, enc, counts)
	counts["stage.elect"] = tr.end(st).Seconds()
	if err != nil {
		return nil, enc, nil, err
	}
	if a.Phi != in.phi || res.Time != in.phi {
		return nil, enc, nil, fmt.Errorf("Theorem 3.1 (traced): oracle φ %d, election time %d, want %d", a.Phi, res.Time, in.phi)
	}

	pg, want := in.g, in.phi
	if in.big != nil {
		pg, want = in.big, cfg.bigPhi
	}
	st = tr.begin("stage.phi", op)
	phi := tracedRefine(tr, st, pg, counts)
	tr.end(st)
	if phi != want {
		return nil, enc, nil, fmt.Errorf("frontier refinement φ = %d, want %d", phi, want)
	}
	return counts, enc, res, nil
}

// tracedElect runs the election of RunElect layer by layer over the
// table the traced oracle filled: the advice decode, the engine with
// every Decide timed, and Verify.
func tracedElect(tr *recorder, parent int, in *inprocInputs, tab *view.Table, enc bits.String, counts map[string]float64) (*sim.Result, error) {
	var f sim.Factory
	var err error
	tr.do("advice.decode", parent, func() { f, err = algorithms.NewElectFactory(tab, enc) })
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	var dt decideTimer
	f = dt.wrap(f)
	var res *sim.Result
	maxRounds := sim.DefaultMaxRounds(in.g)
	if in.shards > 1 {
		tw := newCountingTransport(shard.NewChanTransport(in.shards))
		jw := &timedJournal{inner: shard.NewMemJournal()}
		opt := shard.Options{Shards: in.shards, MaxRounds: maxRounds, Seed: shardSeed, Transport: tw, Journal: jw}
		tr.do("shard.engine", parent, func() { res, _, err = shard.RunCtx(context.Background(), tab, in.g, f, opt) })
		for k, v := range tw.counts() {
			counts[k] = v
		}
		for k, v := range jw.counts() {
			counts[k] = v
		}
	} else {
		tr.do("sim.engine", parent, func() { res, err = sim.RunBSPCtx(context.Background(), tab, in.g, f, maxRounds, 0) })
	}
	if err != nil {
		return nil, fmt.Errorf("election: %w", err)
	}
	tr.do("sim.verify", parent, func() { _, err = sim.Verify(in.g, res.Outputs) })
	if err != nil {
		return nil, fmt.Errorf("election failed verification: %w", err)
	}
	decide, calls := dt.sum()
	counts["sim.decide_s"] = decide.Seconds()
	counts["sim.decide_calls"] = float64(calls)
	counts["sim.rounds"] = float64(res.Time)
	counts["sim.class_views"] = float64(res.ClassViews)
	return res, nil
}

// tracedRefine runs part.FrontierRefiner to the election index with a
// span per step and returns φ (−1 if the graph is infeasible).
func tracedRefine(tr *recorder, parent int, g *graph.Graph, counts map[string]float64) int {
	r := part.NewFrontierRefiner(g, 0)
	count, steps, frontier := r.NumClasses(), 0, 0
	var maxStep time.Duration
	phi := -1
	for {
		frontier += r.FrontierLen()
		maxStep = max(maxStep, tr.do("part.step", parent, r.Step))
		steps++
		if r.NumClasses() == g.N() {
			phi = r.Depth()
			break
		}
		if r.NumClasses() == count {
			break
		}
		count = r.NumClasses()
	}
	counts["part.steps"] = float64(steps)
	counts["part.frontier_classes"] = float64(frontier)
	counts["part.max_step_s"] = maxStep.Seconds()
	return phi
}

// runInproc runs shallow-random, deep-grid or sharded-random: set-up
// (repeated; setup_s is the median), then ops until the window closes,
// then the paper gauges outside the window. A traced run alternates
// untraced and traced ops, so tracing overhead is measured in one run.
func (b *bench) runInproc() (*report, error) {
	cfg := b.cfg
	plan, err := planInproc(cfg, b.workload, b.seed)
	if err != nil {
		return nil, err
	}
	var in *inprocInputs
	var setups []float64
	for t0 := time.Now(); len(setups) < cfg.setupReps || time.Since(t0) < time.Second; {
		in = nil
		runtime.GC()
		t := time.Now()
		in = setupInproc(cfg, b.workload, plan)
		setups = append(setups, time.Since(t).Seconds())
	}
	b.input("g", in.g, in.phi)
	if in.big != nil {
		b.input("big", in.big, cfg.bigPhi)
	}

	// sharded-random's outputs must equal one BSP election of the same
	// graph, computed here, outside set-up and the window.
	var ref *election.Result
	if in.shards > 1 {
		sys := election.NewSystem()
		_, enc, err := sys.ComputeAdvice(in.g)
		if err == nil {
			ref, err = sys.RunElect(in.g, enc, election.Options{})
		}
		if err != nil {
			return nil, fmt.Errorf("BSP reference election: %w", err)
		}
	}

	var samples []opSample
	var traced []map[string]float64
	var firstEnc bits.String
	runtime.GC()
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; time.Since(start) < b.seconds || len(samples) == 0 || (b.rec != nil && len(traced) == 0); i++ {
		runtime.GC() // every op starts from a collected heap, whatever the last one left
		if b.rec != nil && i%2 == 1 {
			first := b.rec.count()
			counts, enc, res, err := tracedOp(b.rec, cfg, in)
			if err != nil {
				heap.halt()
				return nil, fmt.Errorf("traced op %d: %w", i, err)
			}
			if !bits.Equal(enc, firstEnc) {
				heap.halt()
				return nil, fmt.Errorf("traced op %d: rebuilt oracle's advice differs from ComputeAdvice's (%d vs %d bits)", i, enc.Len(), firstEnc.Len())
			}
			if err := sameOutcome(res.Outputs, res.Rounds, res.Time, res.Messages, ref); err != nil {
				heap.halt()
				return nil, fmt.Errorf("traced op %d: %w", i, err)
			}
			layerTimes(b.rec.spansFrom(first), counts)
			traced = append(traced, counts)
			continue
		}
		s, err := untracedOp(cfg, in)
		if err == nil && len(samples) > 0 && !bits.Equal(s.enc, firstEnc) {
			err = fmt.Errorf("advice differs from the first op's (%d vs %d bits)", s.enc.Len(), firstEnc.Len())
		}
		if err == nil {
			err = sameOutcome(s.res.Outputs, s.res.Rounds, s.res.Time, s.res.Messages, ref)
		}
		if err != nil {
			heap.halt()
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if len(samples) == 0 {
			firstEnc = s.enc
		}
		s.enc, s.res = bits.String{}, nil
		samples = append(samples, s)
	}
	window := time.Since(start)
	peak := heap.halt()

	// Outside the window: φ of the election graph where the op does not
	// time it, and the paper's invariants as gauges.
	var phiS []float64
	for _, s := range samples {
		if s.phi > 0 {
			phiS = append(phiS, s.phi.Seconds())
		}
	}
	if in.big == nil {
		// Repeated for half a second: one call takes milliseconds.
		for t0 := time.Now(); len(phiS) < 5 || time.Since(t0) < time.Second/2; {
			t := time.Now()
			phi, ok := election.NewSystem().ElectionIndex(in.g)
			phiS = append(phiS, time.Since(t).Seconds())
			if !ok || phi != in.phi {
				return nil, fmt.Errorf("ElectionIndex = %d (feasible %v), want %d", phi, ok, in.phi)
			}
		}
	}
	gauges := b.paperGauges("g", in.g, in.phi, firstEnc.Len(), samples[0].rounds)
	if in.big != nil {
		b.paperGauges("big", in.big, cfg.bigPhi, 0, cfg.bigPhi)
	}

	rep := &report{attempted: len(samples) + len(traced), metrics: map[string]float64{}}
	var adv, elect, total, hot []float64
	var gcCycles, gcCPU, gcPause, alloc []float64
	for _, s := range samples {
		adv = append(adv, s.advice.Seconds())
		elect = append(elect, s.elect.Seconds())
		total = append(total, s.total.Seconds())
		hot = append(hot, s.hot.Seconds())
		gcCycles = append(gcCycles, float64(s.gc.cycles))
		gcCPU = append(gcCPU, s.gc.gcCPU)
		gcPause = append(gcPause, s.gc.pause.Seconds())
		alloc = append(alloc, float64(s.gc.allocBytes))
	}
	hotP := highestPercentile(len(hot), 99)
	q1, q3 := quartiles(total)
	b.note("samples: %d ops in %.2fs, op time quartiles %.3fs %.3fs; hot p%g %.3f ms (svc_hot_p99_ms, n=%d); hot = advice decode, warm = election on the warm table, cold = whole op",
		len(samples), window.Seconds(), q1, q3, hotP, 1e3*percentile(hot, hotP), len(hot))
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["phi_s"] = median(phiS)
	m["advice_s"] = median(adv)
	m["elect_s"] = median(elect)
	m["peak_heap_mb"] = peak
	m["fail_ratio"] = failRatio(0, rep.attempted)
	m["svc_rps"] = float64(len(samples)+len(traced)) / window.Seconds()
	m["svc_hot_p50_ms"] = 1e3 * median(hot)
	m["svc_warm_p50_ms"] = 1e3 * median(elect)
	m["svc_cold_p50_ms"] = 1e3 * median(total)
	if b.rec == nil {
		return rep, nil
	}

	layer := medianCounts(traced)
	layer["svc_hot_p99_ms"] = 1e3 * percentile(hot, hotP)
	layer["gc.cycles"] = median(gcCycles)
	layer["gc.cpu_s"] = median(gcCPU)
	layer["gc.pause_s"] = median(gcPause)
	layer["heap.alloc_bytes"] = median(alloc)
	for k, v := range gauges {
		layer[k] = v
	}
	layer["trace.coverage"] = minCount(traced, "coverage")
	layer["trace.advice_overhead"] = median(column(traced, "stage.advice")) / median(adv)
	layer["trace.elect_overhead"] = median(column(traced, "stage.elect")) / median(elect)
	if in.shards > 1 {
		b.note("view shipping between in-process shards: shard.sends_view=%g shard.shipped_views=%g (non-zero: shards sharing one view table still ship views)",
			layer["shard.sends_view"], layer["shard.shipped_views"])
	}
	rep.layer = layer
	return rep, nil
}

// sameOutcome checks an election against the reference, if any.
func sameOutcome(outputs [][]int, rounds []int, time, messages int, ref *election.Result) error {
	if ref == nil {
		return nil
	}
	if time != ref.Time || messages != ref.Messages || !reflect.DeepEqual(rounds, ref.Rounds) || !reflect.DeepEqual(outputs, ref.Outputs) {
		return fmt.Errorf("sharded election differs from the BSP reference (time %d vs %d, messages %d vs %d)", time, ref.Time, messages, ref.Messages)
	}
	return nil
}
