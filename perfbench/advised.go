package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	election "repro"
	"repro/internal/bits"
	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/store"
)

// Request classes, numbered as the service's binary response numbers
// its cache sources.
const (
	classCold = 0 // a graph never served: canonical hash, oracle, fsync'd store write
	classWarm = 1 // a new relabeling of a served graph: canonical hash and store read
	classHot  = 2 // a byte-identical repeat: request memo
)

var (
	classNames   = [...]string{"cold", "warm", "hot"}
	requestSpans = [...]string{"serve.request.cold", "serve.request.warm", "serve.request.hot"}
)

// svcClients is the number of closed-loop clients.
const svcClients = 2

// svcRequest is one drawn request: its body, its class and the graph it
// encodes (an index into svcInputs.bases).
type svcRequest struct {
	body  []byte
	class int
	base  int
}

// svcInputs is advised-mix's set-up: the graphs, the request stream, and
// a running service over a disk store whose cache already holds the
// pool graphs.
type svcInputs struct {
	pool   []*graph.Graph // graphs served before the window
	bodies [][]byte       // canonical encodings: the pool's, then one per cold request
	stream []svcRequest

	dir    string
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
}

// svcPlan is what the seed fixes before set-up: each request's class
// and graph, the permutation seed of each warm request, and the seeds
// of the graphs (the pool's, then one per cold request).
type svcPlan struct {
	draws      []svcDraw
	graphSeeds []int64
}

type svcDraw struct {
	class, base int
	permSeed    int64
}

// mixBlock is the request mix: every run of mixBlock consecutive
// requests holds exactly mixHot hot, mixWarm warm and one cold request,
// in an order the seed shuffles. Fixing the mix per block keeps the
// share of slow requests, and with it the throughput, from varying with
// the seed.
const (
	mixBlock = 50
	mixHot   = 45
	mixWarm  = 4
)

func planAdvised(cfg config, seed int64) (svcPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	var p svcPlan
	cold := 0
	block := make([]int, mixBlock)
	for i := 0; i < cfg.svcStream; i++ {
		if i%mixBlock == 0 {
			for j := range block {
				switch {
				case j < mixHot:
					block[j] = classHot
				case j < mixHot+mixWarm:
					block[j] = classWarm
				default:
					block[j] = classCold
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		d := svcDraw{class: block[i%mixBlock]}
		switch d.class {
		case classHot:
			d.base = rng.Intn(cfg.svcPool)
		case classWarm:
			d.base, d.permSeed = rng.Intn(cfg.svcPool), rng.Int63()
		default:
			d.base = cfg.svcPool + cold
			cold++
		}
		p.draws = append(p.draws, d)
	}
	var err error
	p.graphSeeds, err = phiSeeds(rng, cfg.svcN, cfg.svcPhi, cfg.svcPool+cold)
	return p, err
}

// setupAdvised builds the graphs and request bodies of the plan, starts
// the service, and serves every pool graph once so that the caches hold
// them before the window.
func setupAdvised(cfg config, p svcPlan, parentDir string) (*svcInputs, error) {
	in := &svcInputs{}
	for i, s := range p.graphSeeds {
		g := randomGraph(cfg.svcN, s)
		body, _ := g.MarshalBinary()
		if i < cfg.svcPool {
			in.pool = append(in.pool, g)
		}
		in.bodies = append(in.bodies, body)
	}
	for _, d := range p.draws {
		r := svcRequest{class: d.class, base: d.base, body: in.bodies[d.base]}
		if d.class == classWarm {
			var err error
			perm := rand.New(rand.NewSource(d.permSeed)).Perm(cfg.svcN)
			if r.body, err = relabeled(r.body, perm); err != nil {
				return nil, err
			}
		}
		in.stream = append(in.stream, r)
	}
	if err := in.start(parentDir); err != nil {
		in.stop()
		return nil, err
	}
	c := newSvcClient()
	defer c.close()
	for i, body := range in.bodies[:cfg.svcPool] {
		o := c.post(in.url, body)
		if o.err != nil || o.status != http.StatusOK || o.cache != classCold {
			in.stop()
			return nil, fmt.Errorf("warming pool graph %d: status %d cache %d: %v", i, o.status, o.cache, o.err)
		}
	}
	return in, nil
}

// relabeled rewrites a graph's binary encoding (magic, n, m, then each
// edge as u, port, v, port) with node ids permuted: the encoding of the
// same anonymous graph under other node numbers.
func relabeled(body []byte, perm []int) ([]byte, error) {
	if len(body) < 4 {
		return nil, errors.New("relabel: short body")
	}
	out := append(make([]byte, 0, len(body)+len(body)/8), body[:4]...)
	rest := body[4:]
	next := func() (uint64, error) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, errors.New("relabel: truncated body")
		}
		rest = rest[k:]
		return v, nil
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	m, err := next()
	if err != nil {
		return nil, err
	}
	out = binary.AppendUvarint(binary.AppendUvarint(out, n), m)
	for i := uint64(0); i < 4*m; i++ {
		v, err := next()
		if err != nil {
			return nil, err
		}
		if i%2 == 0 { // an endpoint, not a port
			v = uint64(perm[v])
		}
		out = binary.AppendUvarint(out, v)
	}
	return out, nil
}

// start opens the store in a fresh directory and serves it on loopback.
func (in *svcInputs) start(parentDir string) error {
	if err := os.MkdirAll(parentDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(parentDir, "advised-store-")
	if err != nil {
		return err
	}
	in.dir = dir
	if in.st, _, err = store.Open(dir, nil); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.srv = serve.New(serve.Config{Store: in.st})
	in.hs = &http.Server{Handler: in.srv.Handler()}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	in.url = "http://" + ln.Addr().String()
	return nil
}

// stop shuts the service down, waits for it and removes the store.
func (in *svcInputs) stop() {
	if in.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		in.hs.Shutdown(ctx) //nolint:errcheck // best effort: Close below ends what is left
		cancel()
		in.hs.Close() //nolint:errcheck
		<-in.served
		in.srv.Close()
		in.hs = nil
	}
	if in.dir != "" {
		os.RemoveAll(in.dir) //nolint:errcheck // scratch directory
		in.dir = ""
	}
}

// svcClient is one closed-loop client with one keep-alive connection.
// It reads every response into one reused buffer, so that the client,
// which shares the process with the service, adds little garbage of
// its own.
type svcClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newSvcClient() *svcClient {
	return &svcClient{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *svcClient) close() { c.hc.CloseIdleConnections() }

// svcOutcome is one request's result: latency from send to the last
// body byte, status, the cache source the response names, and a
// checksum of its advice envelope for the check after the window.
type svcOutcome struct {
	sent     bool
	status   int
	lat      time.Duration
	cache    int
	degraded bool
	size     int
	crc      uint32
	err      error
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (c *svcClient) post(url string, body []byte) svcOutcome {
	o := svcOutcome{sent: true, cache: -1}
	start := time.Now()
	resp, err := c.hc.Post(url+"/v1/advice.bin", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.lat = time.Since(start)
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return o
	}
	data := c.buf.Bytes()
	if o.status == http.StatusOK {
		if len(data) < 5 || string(data[:4]) != "ADR1" {
			o.err = errors.New("bad response magic")
			return o
		}
		o.cache = int(data[4]>>1) & 3
		o.degraded = data[4]&1 != 0
		o.size = len(data) - 5
		o.crc = crc32.Checksum(data[5:], castagnoli)
	}
	return o
}

// envelope is the service's encoding of (φ, advice): uvarint φ, uvarint
// bit length, the bits packed most significant first.
func envelope(phi int, adv bits.String) []byte {
	buf := binary.AppendUvarint(nil, uint64(phi))
	buf = binary.AppendUvarint(buf, uint64(adv.Len()))
	packed := make([]byte, (adv.Len()+7)/8)
	for i := 0; i < adv.Len(); i++ {
		if adv.Bit(i) {
			packed[i/8] |= 0x80 >> (i % 8)
		}
	}
	return append(buf, packed...)
}

// window runs the closed loop: svcClients goroutines, each posting the
// next request of the stream as soon as its previous one completes,
// until the window closes or the stream runs out.
func (in *svcInputs) window(seconds time.Duration, tr *recorder) ([]svcOutcome, time.Duration) {
	out := make([]svcOutcome, len(in.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(seconds)
	wg.Add(svcClients)
	for c := 0; c < svcClients; c++ {
		go func() {
			defer wg.Done()
			cl := newSvcClient()
			defer cl.close()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(in.stream) {
					return
				}
				id := tr.begin(requestSpans[in.stream[i].class], -1)
				out[i] = cl.post(in.url, in.stream[i].body)
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func (in *svcInputs) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(in.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runAdvised runs advised-mix: set-up (repeated; setup_s is the
// median), the closed-loop window, then the checks of every 200
// response against the oracle, outside the window.
func (b *bench) runAdvised() (*report, error) {
	cfg := b.cfg
	plan, err := planAdvised(cfg, b.seed)
	if err != nil {
		return nil, err
	}
	var in *svcInputs
	var setups []float64
	for t0 := time.Now(); len(setups) < cfg.setupReps || time.Since(t0) < time.Second; {
		if in != nil {
			in.stop()
		}
		in = nil
		runtime.GC()
		t := time.Now()
		if in, err = setupAdvised(cfg, plan, b.outdir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer in.stop()
	b.input("pool[0]", in.pool[0], cfg.svcPhi)
	b.note("advised-mix: %d pool graphs, %d drawn requests, %d clients, store in %s", cfg.svcPool, len(in.stream), svcClients, in.dir)

	before, err := in.stats()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	runtime.GC()
	gc0 := readGC()
	heap := startHeapSampler()
	outs, window := in.window(b.seconds, b.rec)
	peak := heap.halt()
	gcd := readGC().sub(gc0)
	after, err := in.stats()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	// Classify, and collect what each graph's responses must match.
	attempted, failed := 0, 0
	lat := [3][]float64{}
	type sum struct {
		size int
		crc  uint32
	}
	got := map[int][]sum{}
	var sent []int
	for i, o := range outs {
		if !o.sent {
			continue
		}
		attempted++
		sent = append(sent, i)
		r := in.stream[i]
		if o.err != nil || o.status != http.StatusOK {
			failed++
			continue
		}
		if o.cache != r.class || o.degraded {
			return nil, fmt.Errorf("request %d: %s request served as cache=%d degraded=%v", i, classNames[r.class], o.cache, o.degraded)
		}
		lat[r.class] = append(lat[r.class], o.lat.Seconds())
		got[r.base] = append(got[r.base], sum{o.size, o.crc})
	}
	if attempted == 0 {
		return nil, errors.New("no request completed in the window")
	}
	if attempted == len(in.stream) {
		b.note("warning: the drawn stream ran out before the window closed")
	}

	// After the window, on every graph served: the oracle, its envelope
	// against every response, φ, and the election with that advice.
	var adviceS, electS, phiS []float64
	envs := map[int][]byte{}
	var gauges map[string]float64
	for base, body := range in.bodies {
		if _, ok := got[base]; !ok && base >= cfg.svcPool {
			continue
		}
		g, err := graph.UnmarshalBinary(body)
		if err != nil {
			return nil, fmt.Errorf("graph %d: %w", base, err)
		}
		sys := election.NewSystem()
		t := time.Now()
		a, enc, err := sys.ComputeAdvice(g)
		if err != nil {
			return nil, fmt.Errorf("oracle on graph %d: %w", base, err)
		}
		adviceS = append(adviceS, time.Since(t).Seconds())
		if a.Phi != cfg.svcPhi {
			return nil, fmt.Errorf("graph %d: φ = %d, drawn with %d", base, a.Phi, cfg.svcPhi)
		}
		env := envelope(a.Phi, enc)
		envs[base] = env
		want := sum{len(env), crc32.Checksum(env, castagnoli)}
		for _, s := range got[base] {
			if s != want {
				return nil, fmt.Errorf("graph %d: a 200 response differs from the oracle's advice", base)
			}
		}
		t = time.Now()
		phi, ok := sys.ElectionIndex(g)
		phiS = append(phiS, time.Since(t).Seconds())
		if !ok || phi != a.Phi {
			return nil, fmt.Errorf("ElectionIndex = %d, oracle φ %d", phi, a.Phi)
		}
		t = time.Now()
		res, err := sys.RunElect(g, enc, election.Options{})
		if err != nil {
			return nil, fmt.Errorf("election on graph %d: %w", base, err)
		}
		electS = append(electS, time.Since(t).Seconds())
		if res.Time != a.Phi {
			return nil, fmt.Errorf("Theorem 3.1: election time %d, φ %d", res.Time, a.Phi)
		}
		if base == 0 {
			gauges = b.paperGauges("pool[0]", g, phi, enc.Len(), res.Time)
		}
	}

	hotP := highestPercentile(len(lat[classHot]), 99)
	b.note("samples: %d requests in %.2fs (hot %d, warm %d, cold %d, failed %d); hot p%g %.3f ms (svc_hot_p99_ms)",
		attempted, window.Seconds(), len(lat[classHot]), len(lat[classWarm]), len(lat[classCold]), failed, hotP, 1e3*percentile(lat[classHot], hotP))
	for c, xs := range lat {
		if len(xs) == 0 {
			return nil, fmt.Errorf("no successful %s request in the window", classNames[c])
		}
	}
	rep := &report{attempted: attempted, failed: failed, metrics: map[string]float64{}}
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["phi_s"] = median(phiS)
	m["advice_s"] = median(adviceS)
	m["elect_s"] = median(electS)
	m["peak_heap_mb"] = peak
	m["fail_ratio"] = failRatio(failed, attempted)
	m["svc_rps"] = float64(attempted-countErrs(outs)) / window.Seconds()
	m["svc_hot_p50_ms"] = 1e3 * median(lat[classHot])
	m["svc_warm_p50_ms"] = 1e3 * median(lat[classWarm])
	m["svc_cold_p50_ms"] = 1e3 * median(lat[classCold])
	if b.rec == nil {
		return rep, nil
	}

	layer, err := b.replay(in, sent, envs)
	if err != nil {
		return nil, err
	}
	for k, v := range gauges {
		layer[k] = v
	}
	layer["svc_hot_p99_ms"] = 1e3 * percentile(lat[classHot], hotP)
	reqs := float64(after.Requests - before.Requests)
	memo := float64(after.MemoHits - before.MemoHits)
	layer["serve.memo_hit_ratio"] = memo / reqs
	layer["serve.store_hit_ratio"] = float64(after.StoreHits-before.StoreHits) / math.Max(1, reqs-memo)
	layer["serve.computed"] = float64(after.Computed - before.Computed)
	layer["serve.dedup"] = float64(after.Deduplicated - before.Deduplicated)
	layer["serve.shed"] = float64(after.Shed - before.Shed)
	layer["serve.degraded"] = float64(after.Degraded - before.Degraded)
	layer["store.entries"] = float64(after.StoreEntries)
	n := float64(attempted)
	layer["gc.cycles"] = float64(gcd.cycles) / n
	layer["gc.cpu_s"] = gcd.gcCPU / n
	layer["gc.pause_s"] = gcd.pause.Seconds() / n
	layer["heap.alloc_bytes"] = float64(gcd.allocBytes) / n
	rep.layer = layer
	return rep, nil
}

// countErrs counts requests that got no response at all.
func countErrs(outs []svcOutcome) int {
	n := 0
	for _, o := range outs {
		if o.sent && o.status == 0 {
			n++
		}
	}
	return n
}

// replayCap bounds the warm and cold requests replayed per class.
const replayCap = 64

// replay re-runs, after the window and outside the service, the layer
// calls a warm or cold request makes: graph decode, canonical hash, and
// the store read (warm, against the service's store) or write (cold,
// into a scratch store). Each call is a span; the per-layer metrics are
// per-request medians.
func (b *bench) replay(in *svcInputs, sent []int, envs map[int][]byte) (map[string]float64, error) {
	scratch, err := os.MkdirTemp(b.outdir, "advised-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch) //nolint:errcheck // scratch directory
	st, _, err := store.Open(scratch, nil)
	if err != nil {
		return nil, err
	}
	tr := b.rec
	var decode, hash, get, put []float64
	for _, i := range sent {
		r := in.stream[i]
		if r.class == classHot || (r.class == classWarm && len(get) >= replayCap) || (r.class == classCold && len(put) >= replayCap) {
			continue
		}
		root := tr.begin("replay."+classNames[r.class], -1)
		var g *graph.Graph
		d := tr.do("graph.decode", root, func() { g, err = graph.UnmarshalBinary(r.body) })
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		decode = append(decode, d.Seconds())
		var key store.Key
		hash = append(hash, tr.do("canon.hash", root, func() { key = store.Key(canon.Hash(g)) }).Seconds())
		if r.class == classWarm {
			var ok bool
			get = append(get, tr.do("store.get", root, func() { _, ok, err = in.st.Get(key) }).Seconds())
			if err != nil || !ok {
				return nil, fmt.Errorf("replay: warm graph missing from the store (%v)", err)
			}
		} else {
			put = append(put, tr.do("store.put", root, func() { err = st.Put(key, envs[r.base]) }).Seconds())
			if err != nil {
				return nil, fmt.Errorf("replay put: %w", err)
			}
		}
		tr.end(root)
	}
	return map[string]float64{
		"graph.decode_s": median(decode),
		"canon.hash_s":   median(hash),
		"store.get_s":    median(get),
		"store.put_s":    median(put),
	}, nil
}
