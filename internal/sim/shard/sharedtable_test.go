package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/view"
)

// transportCounts tallies, across every transport wrapped with it,
// the messages handed to Send per kind and, per link (sender, peer),
// the view-batch acks the sender received.
type transportCounts struct {
	mu       sync.Mutex
	sends    map[Kind]int
	viewAcks map[[2]int]int
}

func newTransportCounts() *transportCounts {
	return &transportCounts{sends: map[Kind]int{}, viewAcks: map[[2]int]int{}}
}

func (c *transportCounts) wrap(inner Transport) Transport {
	return &countingTransport{Transport: inner, c: c}
}

func (c *transportCounts) sent(k Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends[k]
}

func (c *transportCounts) acked(s, p int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewAcks[[2]int{s, p}]
}

type countingTransport struct {
	Transport
	c *transportCounts
}

func (t *countingTransport) Send(m Message) error {
	t.c.mu.Lock()
	t.c.sends[m.Kind]++
	t.c.mu.Unlock()
	return t.Transport.Send(m)
}

func (t *countingTransport) Recv(shard int, timeout time.Duration) (Message, bool) {
	m, ok := t.Transport.Recv(shard, timeout)
	if ok && m.Kind == KindAck && m.AckOf == KindView {
		t.c.mu.Lock()
		t.c.viewAcks[[2]int{shard, m.From}]++
		t.c.mu.Unlock()
	}
	return m, ok
}

// countingJournal counts Views calls.
type countingJournal struct {
	Journal
	views atomic.Int64
}

func (j *countingJournal) Views(shard, peer int, vs []WireView) error {
	j.views.Add(1)
	return j.Journal.Views(shard, peer, vs)
}

// TestShardedSharedTableShipsNoViews pins that the in-process engine
// never ships, journals or acks a view body: its shards share one
// view.Table, so ghost ids resolve through the engine registry. The
// transports are wrapped (a counting layer over FaultTransport or a
// NetGroup), so the property cannot hinge on the transport's type.
// With crashes injected, restarted shards must still resolve their
// journaled ghost ids, and outputs stay bit-identical to RunBSP.
func TestShardedSharedTableShipsNoViews(t *testing.T) {
	g := graph.RandomConnected(60, 45, 11)
	want, err := sim.RunBSP(view.NewTable(), g, countFactory, sim.DefaultMaxRounds(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	for _, tc := range []struct {
		name    string
		inner   func(t *testing.T) (Transport, *faults.Injector)
		crashes int
	}{
		{"chan", func(t *testing.T) (Transport, *faults.Injector) { return NewChanTransport(shards), nil }, 0},
		{"fault-crash", func(t *testing.T) (Transport, *faults.Injector) {
			inj := faults.New(41)
			inj.SetRate(FaultDrop, 0.06)
			inj.SetRate(FaultDup, 0.05)
			inj.SetRate(FaultReorder, 0.05)
			inj.SetRate(FaultDelay, 0.03)
			for s := 0; s < shards; s++ {
				inj.ArmAfter(CrashCat(s), 1+2*s, 1)
			}
			return NewFaultTransport(NewChanTransport(shards), inj), inj
		}, shards},
		{"netgroup", func(t *testing.T) (Transport, *faults.Injector) {
			return netGroup(t, "tcp", shards, nil), nil
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, inj := tc.inner(t)
			counts := newTransportCounts()
			jr := &countingJournal{Journal: NewMemJournal()}
			got, stats, err := Run(view.NewTable(), g, countFactory, Options{Shards: shards, Seed: 5, Transport: counts.wrap(inner), Journal: jr})
			label := fmt.Sprintf("%s [%v]", tc.name, inj)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSame(t, label, want, got)
			if n := counts.sent(KindView); n != 0 {
				t.Errorf("%s: %d view messages sent between shards sharing a table", label, n)
			}
			if n := jr.views.Load(); n != 0 {
				t.Errorf("%s: %d Journal.Views calls between shards sharing a table", label, n)
			}
			if counts.sent(KindData) == 0 {
				t.Errorf("%s: no boundary data sent", label)
			}
			if stats.Crashes < tc.crashes || stats.Recoveries < tc.crashes {
				t.Errorf("%s: %d crashes / %d recoveries, want at least %d each", label, stats.Crashes, stats.Recoveries, tc.crashes)
			}
		})
	}
}

// corruptingTransport rewrites the first id of the first boundary
// payload it carries to an id no shard registered.
type corruptingTransport struct {
	Transport
	once sync.Once
}

func (c *corruptingTransport) Send(m Message) error {
	if m.Kind == KindData && len(m.Payload) > 0 {
		c.once.Do(func() {
			m = m.Clone()
			m.Payload[0] = 1 << 62
		})
	}
	return c.Transport.Send(m)
}

// TestShardedUnregisteredGhost pins that a ghost id missing from the
// engine registry fails the run with a typed error instead of building
// a view over a nil child.
func TestShardedUnregisteredGhost(t *testing.T) {
	g := graph.Grid(4, 5)
	tr := &corruptingTransport{Transport: NewChanTransport(2)}
	_, _, err := Run(view.NewTable(), g, countFactory, Options{Shards: 2, Transport: tr})
	var ue *unregisteredError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *unregisteredError", err)
	}
	if ue.ID != 1<<62 {
		t.Errorf("unregistered id %d, want %d", ue.ID, uint64(1)<<62)
	}
}
