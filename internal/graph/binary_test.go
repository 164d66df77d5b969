package graph

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range map[string]*Graph{
		"ring":     Ring(7),
		"clique":   Clique(5),
		"grid":     Grid(4, 3),
		"lollipop": Lollipop(4, 3),
		"random":   RandomConnected(40, 20, 3),
		"single":   NewBuilder(1).MustFinalize(),
	} {
		enc, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h, err := UnmarshalBinary(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if g.Text() != h.Text() {
			t.Errorf("%s: binary round trip changed the graph", name)
		}
		enc2, _ := h.MarshalBinary()
		if string(enc) != string(enc2) {
			t.Errorf("%s: re-encode differs", name)
		}
	}
}

func TestBinaryRejects(t *testing.T) {
	g := Ring(5)
	enc, _ := g.MarshalBinary()
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   append([]byte("XXXX"), enc[4:]...),
		"truncated":   enc[:len(enc)-3],
		"trailing":    append(append([]byte(nil), enc...), 0),
		"zero nodes":  {'A', 'P', 'G', '1', 0, 0},
		"huge edges":  {'A', 'P', 'G', '1', 3, 200},
		"huge varint": {'A', 'P', 'G', '1', 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		if _, err := UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoder accepted malformed input", name)
		}
	}
}

// A header claiming the simple-graph maximum of edges on a short body is
// a truncation error, and the decoder reserves no more edges than the
// body could hold.
func TestBinaryForgedEdgeCount(t *testing.T) {
	n := 1 << 12
	data := append([]byte("APG1"), binary.AppendUvarint(nil, uint64(n))...)
	data = binary.AppendUvarint(data, uint64(n*(n-1)/2))
	data = append(data, 0, 0, 1, 0, 1, 1) // one edge, then a cut-off one
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = UnmarshalBinary(data) })
	if err == nil || !strings.Contains(err.Error(), "truncated binary") {
		t.Fatalf("got error %v, want a truncation error", err)
	}
	if allocs > 10 {
		t.Errorf("%v allocations per decode of a forged header", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<16 {
		t.Errorf("a forged header cost %d bytes of allocation", b)
	}
}
