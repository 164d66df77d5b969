package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// checkFinalizeAgainstReference finalizes b with both Finalize and the
// map-based reference: they must agree on the graph (byte for byte) or
// on the error text. The reference names the bad port of a port-range
// error in map order, so that message is compared up to the port.
func checkFinalizeAgainstReference(t testing.TB, b *Builder) {
	t.Helper()
	got, err := b.Finalize()
	want, wantErr := b.finalizeReference()
	switch {
	case err == nil && wantErr == nil:
		mustStreamEqual(got, want)
	case err == nil || wantErr == nil:
		t.Fatalf("Finalize error %v, reference error %v on %v", err, wantErr, b.edges)
	default:
		g, w := err.Error(), wantErr.Error()
		if i := strings.Index(w, "uses port "); i >= 0 && len(g) > i {
			g, w = g[:i], w[:i]
		}
		if g != w {
			t.Fatalf("Finalize error %q, reference error %q on n=%d %v", err, wantErr, b.n, b.edges)
		}
	}
}

// edgesOf lists each edge of g once, from its lower endpoint.
func edgesOf(g *Graph) []builderEdge {
	var es []builderEdge
	for v := 0; v < g.N(); v++ {
		for p, h := range g.adj[v] {
			if v < h.To {
				es = append(es, builderEdge{v, p, h.To, h.RemotePort})
			}
		}
	}
	return es
}

// corruptEdges applies one random defect of the kinds Finalize must
// reject (or, for a dropped or stray edge, may accept).
func corruptEdges(rng *rand.Rand, n int, es []builderEdge) []builderEdge {
	kind := rng.Intn(8)
	if len(es) == 0 {
		kind = 7
	}
	i := rng.Intn(max(len(es), 1))
	switch kind {
	case 0: // endpoint out of range
		bad := []int{-1, -2, n, n + 1}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			es[i].u = bad
		} else {
			es[i].v = bad
		}
	case 1: // self-loop
		es[i].v = es[i].u
	case 2: // negative port
		if rng.Intn(2) == 0 {
			es[i].pu = -1 - rng.Intn(3)
		} else {
			es[i].pv = -1 - rng.Intn(3)
		}
	case 3: // duplicate edge, maybe reversed, maybe on fresh ports
		e := es[i]
		if rng.Intn(2) == 0 {
			e = builderEdge{e.v, e.pv, e.u, e.pu}
		}
		if rng.Intn(2) == 0 {
			e.pu, e.pv = rng.Intn(6), rng.Intn(6)
		}
		es = insertAt(rng, es, e)
	case 4: // a port another edge already holds at the same node
		u := es[i].u
		for _, j := range rng.Perm(len(es)) {
			if j == i {
				continue
			}
			if es[j].u == u {
				es[i].pu = es[j].pu
				break
			}
			if es[j].v == u {
				es[i].pu = es[j].pv
				break
			}
		}
	case 5: // a port >= the degree
		d := 0
		for _, e := range es {
			if e.u == es[i].u || e.v == es[i].u {
				d++
			}
		}
		es[i].pu = d + rng.Intn(3)
	case 6: // drop an edge and close the port gaps it leaves
		e := es[i]
		es = append(es[:i], es[i+1:]...)
		for j := range es {
			if es[j].u == e.u && es[j].pu > e.pu || es[j].u == e.v && es[j].pu > e.pv {
				es[j].pu--
			}
			if es[j].v == e.u && es[j].pv > e.pu || es[j].v == e.v && es[j].pv > e.pv {
				es[j].pv--
			}
		}
	case 7: // a stray edge
		es = insertAt(rng, es, builderEdge{rng.Intn(n), rng.Intn(5), rng.Intn(n), rng.Intn(5)})
	}
	return es
}

func insertAt(rng *rand.Rand, es []builderEdge, e builderEdge) []builderEdge {
	i := rng.Intn(len(es) + 1)
	es = append(es, builderEdge{})
	copy(es[i+1:], es[i:])
	es[i] = e
	return es
}

// TestFinalizeMatchesReference runs Finalize and the map-based reference
// on random valid graphs in shuffled edge order, each with up to two
// defects applied.
func TestFinalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 20000; c++ {
		n := 1 + rng.Intn(10)
		var es []builderEdge
		if n > 1 {
			es = edgesOf(RandomConnected(n, rng.Intn(2*n), rng.Int63()))
		}
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		for i, e := range es {
			if rng.Intn(2) == 0 {
				es[i] = builderEdge{e.v, e.pv, e.u, e.pu}
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			es = corruptEdges(rng, n, es)
		}
		checkFinalizeAgainstReference(t, &Builder{n: n, edges: es})
	}
}

// builderFromBytes reads a fuzz input: the first byte picks n in
// [1, 12], then every four bytes are one edge (u, pu, v, pv). A node
// byte b means node b-1 modulo n+2 (so -1 and n occur); a port byte b
// means port b-1 modulo 10 (so -1 occurs).
func builderFromBytes(data []byte) *Builder {
	if len(data) == 0 {
		return NewBuilder(1)
	}
	n := 1 + int(data[0])%12
	b := NewBuilder(n)
	node := func(x byte) int { return int(x)%(n+2) - 1 }
	port := func(x byte) int { return int(x)%10 - 1 }
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		b.AddEdge(node(data[0]), port(data[1]), node(data[2]), port(data[3]))
	}
	return b
}

// FuzzBuilderFinalize holds Finalize to the map-based reference on
// arbitrary edge lists.
func FuzzBuilderFinalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFinalizeAgainstReference(t, builderFromBytes(data))
	})
}

// The port-range error names the lowest bad node and its smallest port
// >= deg, however often it is produced.
func TestFinalizePortRangeErrorDeterministic(t *testing.T) {
	const want = "graph: node 1 has degree 4 but uses port 4"
	for i := 0; i < 50; i++ {
		_, err := NewBuilder(6).
			AddEdge(1, 9, 0, 0).
			AddEdge(1, 4, 2, 0).
			AddEdge(1, 6, 3, 0).
			AddEdge(1, 3, 4, 0).
			AddEdge(2, 5, 5, 0).
			Finalize()
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: got %v, want %q", i, err, want)
		}
	}
}

// The slab-built RelabelNodes equals the Builder-built relabeling byte
// for byte on every family and permutation.
func TestRelabelNodesMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range map[string]*Graph{
		"single":         NewBuilder(1).MustFinalize(),
		"ring":           Ring(7),
		"path":           Path(5),
		"clique":         Clique(5),
		"star":           Star(4),
		"k23":            CompleteBipartite(2, 3),
		"grid":           Grid(4, 3),
		"hypercube":      Hypercube(3),
		"lollipop":       Lollipop(4, 3),
		"random":         RandomConnected(30, 15, 2),
		"shuffled-torus": ShufflePorts(Torus(3, 4), 1),
		"torus":          Torus(3, 4),
		"binarytree":     BinaryTree(3),
		"caterpillar":    Caterpillar([]int{2, 0, 1}),
		"wheel":          Wheel(5),
		"wheel-tail":     WheelWithTail(5, 2),
		"broom":          Broom(3, 2),
		"grid-stream":    GridStream(5, 4),
		"torus-stream":   TorusStream(4, 3),
		"hcube-stream":   HypercubeStream(4),
		"random-stream":  RandomConnectedStream(40, 20, 3),
	} {
		n := g.N()
		perms := [][]int{make([]int, n), make([]int, n)}
		for v := 0; v < n; v++ {
			perms[0][v], perms[1][v] = v, n-1-v
		}
		for k := 0; k < 4; k++ {
			perms = append(perms, rng.Perm(n))
		}
		t.Run(name, func(t *testing.T) {
			for _, perm := range perms {
				mustStreamEqual(RelabelNodes(g, perm), relabelNodesReference(g, perm))
			}
		})
	}
}

func TestRelabelNodesPanics(t *testing.T) {
	g := Ring(4)
	for _, c := range []struct {
		perm []int
		want string
	}{
		{[]int{0, 1, 2}, "graph.RelabelNodes: permutation length mismatch"},
		{[]int{0, 1, 2, 3, 4}, "graph.RelabelNodes: permutation length mismatch"},
		{[]int{0, 1, 1, 3}, "graph.RelabelNodes: not a permutation"},
		{[]int{0, 1, 2, 4}, "graph.RelabelNodes: not a permutation"},
		{[]int{0, -1, 2, 3}, "graph.RelabelNodes: not a permutation"},
	} {
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("perm %v: panic %v, want %q", c.perm, r, c.want)
				}
			}()
			RelabelNodes(g, c.perm)
		}()
	}
}
